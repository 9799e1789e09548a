type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

(* Inlined so the pattern kernels below pay no call or boxing per word. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = int64 t }

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  v /. 9007199254740992.0 *. bound (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let of_key ~seed name =
  (* Fold the name into the seed one byte at a time, mixing at every
     step; the resulting stream depends only on (seed, name), never on
     how many draws other consumers made first. *)
  let h = ref (mix (Int64.of_int seed)) in
  String.iter
    (fun c -> h := mix (Int64.add (Int64.mul !h golden) (Int64.of_int (Char.code c))))
    name;
  { state = !h }

let rank ~seed i =
  (* Two mixing rounds decorrelate consecutive indices under the same
     seed; masking to [max_int] keeps the result a non-negative [int]. *)
  let z = mix (Int64.add (mix (Int64.of_int seed)) (Int64.mul golden (Int64.of_int (i + 1)))) in
  Int64.to_int z land max_int

(* The pattern stream. Byte [i] of stream [seed] is byte [i land 7]
   (little-endian) of the word [mix (seed + i lsr 3)], so consecutive bytes
   share one [mix] per 8 positions in the kernels below; [byte_at] alone
   recomputes the word on every call. *)
let[@inline] pattern_word seed w = mix (Int64.add seed (Int64.of_int w))

let[@inline] word_byte word k = Int64.logand (Int64.shift_right_logical word (k * 8)) 0xFFL

let byte_at ~seed i =
  Char.unsafe_chr (Int64.to_int (word_byte (pattern_word seed (i lsr 3)) (i land 7)))

let pattern_blit ~seed ~off buf pos len =
  if off < 0 || pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Rng.pattern_blit";
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    let word = pattern_word seed (!i lsr 3) in
    if !i land 7 = 0 && !i + 8 <= stop then begin
      Bytes.set_int64_le buf (pos + !i - off) word;
      i := !i + 8
    end
    else begin
      let next_word = (!i lor 7) + 1 in
      let word_end = if stop < next_word then stop else next_word in
      while !i < word_end do
        Bytes.unsafe_set buf (pos + !i - off)
          (Char.unsafe_chr (Int64.to_int (word_byte word (!i land 7))));
        incr i
      done
    end
  done

(* Word-at-a-time form of the byte-wise fold h := h*b + (byte + 1). An
   aligned full word with stream bytes c0..c7 advances h to
     h*b^8 + sum_k ck*b^(7-k) + (1 + b + ... + b^7)
   which is the same value mod 2^64 as eight byte steps, but the eight
   products are independent: the serial multiply-add chain runs once per
   word instead of once per byte. The unaligned head and tail of the slice
   take the byte-wise step, reading the same word. Everything stays in this
   one function over unboxed locals; splitting it (or calling [mix] across
   a module boundary, which dune's default [-opaque] never inlines) boxes
   the [int64]s and roughly halves the throughput. *)
let pattern_hash ~base ~seed ~off ~len =
  let b2 = Int64.mul base base in
  let b3 = Int64.mul b2 base in
  let b4 = Int64.mul b3 base in
  let b5 = Int64.mul b4 base in
  let b6 = Int64.mul b5 base in
  let b7 = Int64.mul b6 base in
  let b8 = Int64.mul b7 base in
  let ones = Int64.(add (add (add 1L base) (add b2 b3)) (add (add b4 b5) (add b6 b7))) in
  let stop = off + len in
  let h = ref 0L in
  let i = ref off in
  while !i < stop do
    let word = pattern_word seed (!i lsr 3) in
    if !i land 7 = 0 && !i + 8 <= stop then begin
      let sum =
        Int64.(
          add
            (add
               (add (mul (word_byte word 0) b7) (mul (word_byte word 1) b6))
               (add (mul (word_byte word 2) b5) (mul (word_byte word 3) b4)))
            (add
               (add (mul (word_byte word 4) b3) (mul (word_byte word 5) b2))
               (add (mul (word_byte word 6) base) (word_byte word 7))))
      in
      h := Int64.add (Int64.add (Int64.mul !h b8) ones) sum;
      i := !i + 8
    end
    else begin
      let next_word = (!i lor 7) + 1 in
      let word_end = if stop < next_word then stop else next_word in
      while !i < word_end do
        h := Int64.add (Int64.mul !h base) (Int64.succ (word_byte word (!i land 7)));
        incr i
      done
    end
  done;
  !h
