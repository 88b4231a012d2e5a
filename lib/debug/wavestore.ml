(* Compact indexed binary waveform store (schema [fireaxe-wave-1]):
   change-only per-sample records with varint cycle deltas, periodic
   keyframes carrying every signal value, and a trailing cycle index so
   random access is a binary search plus a short forward scan instead of
   a scan from cycle zero.  VCD text made full capture cost +42% in
   BENCH_observe.json; this sink writes a few varint bytes per changed
   signal and renders to VCD only on demand, losslessly.

   Layout:

     "fireaxe-wave-1\n"
     header   : varint nsignals, nsignals x (varint len, name, varint w),
                varint keyframe_every
     frames   : 'K' varint cycle, nsignals varints        (keyframe)
                'D' varint dcycle, varint nchanges,
                    nchanges x (varint index, varint value)
     index    : varint nsamples, varint first_cycle, varint last_cycle,
                varint nkeys, nkeys x (varint cycle, varint offset)
     trailer  : 8-byte big-endian index offset, "FAXW"

   Varints are LEB128 over the int's unsigned bit pattern, so any OCaml
   int round-trips in at most nine bytes. *)

let schema = "fireaxe-wave-1"

let magic = schema ^ "\n"
let tail_magic = "FAXW"

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt why -> Some (Printf.sprintf "wavestore: corrupt store (%s)" why)
    | _ -> None)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

(* The varint + delta-record codec, exposed so the service's push
   frames ([watch] probe deltas) ride the exact same bytes as the
   on-disk store. *)
module Codec = struct
  let add_varint buf n =
    let rec go n =
      let b = n land 0x7f in
      let rest = n lsr 7 in
      if rest = 0 then Buffer.add_char buf (Char.chr b)
      else begin
        Buffer.add_char buf (Char.chr (b lor 0x80));
        go rest
      end
    in
    go n

  let read_varint s pos =
    let len = String.length s in
    let rec go shift acc =
      if !pos >= len then corrupt "truncated varint";
      let b = Char.code s.[!pos] in
      incr pos;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc
      else if shift >= 63 then corrupt "varint overflow"
      else go (shift + 7) acc
    in
    go 0 0

  (* One probe-delta record: target cycle plus (signal index, value)
     changes — the payload of a [watch] push frame. *)
  let encode_delta ~cycle ~changes =
    let buf = Buffer.create 32 in
    add_varint buf cycle;
    add_varint buf (List.length changes);
    List.iter
      (fun (i, v) ->
        add_varint buf i;
        add_varint buf v)
      changes;
    Buffer.contents buf

  let decode_delta s =
    let pos = ref 0 in
    let cycle = read_varint s pos in
    let n = read_varint s pos in
    if n < 0 || n > String.length s then corrupt "insane delta change count %d" n;
    let changes = List.init n (fun _ ->
        let i = read_varint s pos in
        let v = read_varint s pos in
        (i, v))
    in
    (cycle, changes)
end

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type t = {
    wr_signals : (string * int) array;
    wr_every : int;  (* samples between keyframes *)
    wr_buf : Buffer.t;  (* magic + header + frames so far *)
    mutable wr_last : int array;  (* values at the previous sample *)
    mutable wr_cycle : int;  (* previous sample's cycle *)
    mutable wr_ecycle : int;  (* cycle of the last emitted record *)
    mutable wr_samples : int;
    mutable wr_first_cycle : int;
    mutable wr_keys : (int * int) list;  (* (cycle, offset), newest first *)
  }

  let create ?(keyframe_every = 64) ~signals () =
    if keyframe_every < 1 then invalid_arg "Wavestore.Writer.create: keyframe_every < 1";
    let signals = Array.of_list signals in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    Codec.add_varint buf (Array.length signals);
    Array.iter
      (fun (name, w) ->
        Codec.add_varint buf (String.length name);
        Buffer.add_string buf name;
        Codec.add_varint buf w)
      signals;
    Codec.add_varint buf keyframe_every;
    {
      wr_signals = signals;
      wr_every = keyframe_every;
      wr_buf = buf;
      wr_last = [||];
      wr_cycle = min_int;
      wr_ecycle = min_int;
      wr_samples = 0;
      wr_first_cycle = 0;
      wr_keys = [];
    }

  let sample_count t = t.wr_samples

  let sample t ~cycle values =
    if Array.length values <> Array.length t.wr_signals then
      invalid_arg "Wavestore.Writer.sample: value count mismatch";
    if t.wr_samples > 0 && cycle <= t.wr_cycle then
      invalid_arg
        (Printf.sprintf "Wavestore.Writer.sample: cycle %d after %d" cycle t.wr_cycle);
    if t.wr_samples = 0 || t.wr_samples mod t.wr_every = 0 then begin
      t.wr_keys <- (cycle, Buffer.length t.wr_buf) :: t.wr_keys;
      Buffer.add_char t.wr_buf 'K';
      Codec.add_varint t.wr_buf cycle;
      Array.iter (fun v -> Codec.add_varint t.wr_buf v) values;
      t.wr_ecycle <- cycle
    end
    else begin
      let changes = ref [] in
      for i = Array.length values - 1 downto 0 do
        if values.(i) <> t.wr_last.(i) then changes := (i, values.(i)) :: !changes
      done;
      (* A sample where nothing moved emits no record at all — the store
         is change-only between keyframes, which is where the size win
         over per-cycle VCD timestamps comes from.  Readers reconstruct
         the quiet cycles implicitly: a query cycle between two records
         resolves to the values of the record at or before it. *)
      match !changes with
      | [] -> ()
      | changes ->
        Buffer.add_char t.wr_buf 'D';
        Codec.add_varint t.wr_buf (cycle - t.wr_ecycle);
        Codec.add_varint t.wr_buf (List.length changes);
        List.iter
          (fun (i, v) ->
            Codec.add_varint t.wr_buf i;
            Codec.add_varint t.wr_buf v)
          changes;
        t.wr_ecycle <- cycle
    end;
    if t.wr_samples = 0 then t.wr_first_cycle <- cycle;
    t.wr_last <- Array.copy values;
    t.wr_cycle <- cycle;
    t.wr_samples <- t.wr_samples + 1

  let contents t =
    let index = Buffer.create 256 in
    Codec.add_varint index t.wr_samples;
    Codec.add_varint index (if t.wr_samples = 0 then 0 else t.wr_first_cycle);
    Codec.add_varint index (if t.wr_samples = 0 then 0 else t.wr_cycle);
    let keys = List.rev t.wr_keys in
    Codec.add_varint index (List.length keys);
    List.iter
      (fun (c, off) ->
        Codec.add_varint index c;
        Codec.add_varint index off)
      keys;
    let index_off = Buffer.length t.wr_buf in
    let trailer = Bytes.create 12 in
    for i = 0 to 7 do
      Bytes.set trailer i (Char.chr ((index_off lsr (8 * (7 - i))) land 0xff))
    done;
    Bytes.blit_string tail_magic 0 trailer 8 4;
    Buffer.contents t.wr_buf ^ Buffer.contents index ^ Bytes.to_string trailer

  let save t ~path =
    let oc = open_out_bin path in
    output_string oc (contents t);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type t = {
    rd_data : string;
    rd_signals : (string * int) array;
    rd_every : int;
    rd_body : int;  (* offset of the first frame *)
    rd_index_off : int;  (* frames end here *)
    rd_samples : int;
    rd_first : int;
    rd_last : int;
    rd_keys : (int * int) array;  (* (keyframe cycle, frame offset) *)
  }

  let of_string data =
    let mlen = String.length magic in
    if String.length data < mlen + 12 then corrupt "too short";
    if String.sub data 0 mlen <> magic then corrupt "bad magic";
    if String.sub data (String.length data - 4) 4 <> tail_magic then
      corrupt "bad trailer magic";
    let index_off =
      let base = String.length data - 12 in
      let v = ref 0 in
      for i = 0 to 7 do
        v := (!v lsl 8) lor Char.code data.[base + i]
      done;
      !v
    in
    if index_off < mlen || index_off > String.length data - 12 then
      corrupt "insane index offset %d" index_off;
    let pos = ref mlen in
    let nsig = Codec.read_varint data pos in
    if nsig < 0 || nsig > String.length data then corrupt "insane signal count %d" nsig;
    let signals =
      Array.init nsig (fun _ ->
          let len = Codec.read_varint data pos in
          if len < 0 || !pos + len > String.length data then
            corrupt "truncated signal name";
          let name = String.sub data !pos len in
          pos := !pos + len;
          let w = Codec.read_varint data pos in
          (name, w))
    in
    let every = Codec.read_varint data pos in
    let body = !pos in
    let pos = ref index_off in
    let samples = Codec.read_varint data pos in
    let first = Codec.read_varint data pos in
    let last = Codec.read_varint data pos in
    let nkeys = Codec.read_varint data pos in
    if nkeys < 0 || nkeys > String.length data then corrupt "insane key count %d" nkeys;
    let keys =
      Array.init nkeys (fun _ ->
          let c = Codec.read_varint data pos in
          let off = Codec.read_varint data pos in
          if off < body || off >= index_off then corrupt "key offset %d out of body" off;
          (c, off))
    in
    {
      rd_data = data;
      rd_signals = signals;
      rd_every = every;
      rd_body = body;
      rd_index_off = index_off;
      rd_samples = samples;
      rd_first = first;
      rd_last = last;
      rd_keys = keys;
    }

  let load path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    of_string data

  let signals t = t.rd_signals
  let sample_count t = t.rd_samples
  let keyframe_count t = Array.length t.rd_keys
  let keyframe_every t = t.rd_every
  let first_cycle t = if t.rd_samples = 0 then None else Some t.rd_first
  let last_cycle t = if t.rd_samples = 0 then None else Some t.rd_last

  let signal_index t name =
    let n = Array.length t.rd_signals in
    let rec go i =
      if i >= n then None else if fst t.rd_signals.(i) = name then Some i else go (i + 1)
    in
    go 0

  (* Decodes the frame at [pos], updating [values] (current snapshot)
     and [cycle] in place; returns the per-frame change list ([] means
     a keyframe frame is reported as a change of every signal). *)
  let step t pos ~values ~cycle =
    let nsig = Array.length t.rd_signals in
    if !pos >= t.rd_index_off then corrupt "scan past body end";
    let tag = t.rd_data.[!pos] in
    incr pos;
    match tag with
    | 'K' ->
      let c = Codec.read_varint t.rd_data pos in
      if !cycle <> min_int && c <= !cycle then
        corrupt "keyframe cycle %d not after cycle %d" c !cycle;
      let changes = ref [] in
      (* read in order, report changed-vs-previous for callers that
         want a change view of the keyframe *)
      let fresh = Array.init nsig (fun _ -> Codec.read_varint t.rd_data pos) in
      for i = nsig - 1 downto 0 do
        if !cycle = min_int || fresh.(i) <> values.(i) then
          changes := (i, fresh.(i)) :: !changes
      done;
      Array.blit fresh 0 values 0 nsig;
      cycle := c;
      !changes
    | 'D' ->
      let dc = Codec.read_varint t.rd_data pos in
      (* Cycles strictly increase; the second test catches overflow. *)
      if dc <= 0 || !cycle + dc <= !cycle then
        corrupt "delta frame advances cycle %d by %d" !cycle dc;
      let n = Codec.read_varint t.rd_data pos in
      if n < 0 || n > nsig then corrupt "insane change count %d" n;
      let changes = List.init n (fun _ ->
          let i = Codec.read_varint t.rd_data pos in
          let v = Codec.read_varint t.rd_data pos in
          if i < 0 || i >= nsig then corrupt "change index %d out of range" i;
          values.(i) <- v;
          (i, v))
      in
      cycle := !cycle + dc;
      changes
    | c -> corrupt "unknown frame tag %C" c

  (* The last keyframe whose cycle is <= [cycle]: binary search over
     the index. *)
  let seek t cycle =
    let keys = t.rd_keys in
    let n = Array.length keys in
    if n = 0 || cycle < fst keys.(0) then None
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if fst keys.(mid) <= cycle then lo := mid else hi := mid - 1
      done;
      Some keys.(!lo)
    end

  (* Folds [f] over samples from the beginning (or from a keyframe at
     or before [from]) while [f] keeps returning [true]. *)
  let scan ?from t f =
    if t.rd_samples > 0 then begin
      let from_start = if Array.length t.rd_keys = 0 then None else Some t.rd_keys.(0) in
      let start =
        match from with
        | None -> from_start
        | Some c -> (
          (* a target before the first keyframe still scans from the
             beginning — the caller filters by cycle *)
          match seek t c with Some k -> Some k | None -> from_start)
      in
      match start with
      | None -> ()
      | Some (_, off) ->
        let nsig = Array.length t.rd_signals in
        let values = Array.make nsig 0 in
        let cycle = ref min_int in
        let pos = ref off in
        let continue = ref true in
        while !continue && !pos < t.rd_index_off do
          let changes = step t pos ~values ~cycle in
          continue := f ~cycle:!cycle ~values ~changes
        done
    end

  let values_at t ~cycle =
    if t.rd_samples = 0 || cycle < t.rd_first then None
    else begin
      let best = ref None in
      scan ~from:cycle t (fun ~cycle:c ~values ~changes:_ ->
          if c <= cycle then begin
            best := Some (Array.copy values);
            true
          end
          else false);
      !best
    end

  let value_at t ~cycle name =
    match signal_index t name with
    | None -> None
    | Some i -> (
      match values_at t ~cycle with
      | None -> None
      | Some vs -> Some vs.(i))

  (* Samples with cycle in [lo, hi], oldest first; each carries the
     (index, value) changes vs the previous sample, except the first
     returned sample which carries a full snapshot so a slice is
     self-contained. *)
  let slice t ~lo ~hi =
    let out = ref [] in
    let started = ref false in
    scan ~from:lo t (fun ~cycle ~values ~changes ->
        if cycle > hi then false
        else begin
          if cycle >= lo then begin
            let ev =
              if !started then changes
              else Array.to_list (Array.mapi (fun i v -> (i, v)) values)
            in
            started := true;
            out := (cycle, ev) :: !out
          end;
          true
        end);
    List.rev !out

  (* Per-signal change lists (cycle, value), oldest first — every
     signal's first sampled cycle opens its list. *)
  let change_lists t =
    let nsig = Array.length t.rd_signals in
    let out = Array.make nsig [] in
    let first = ref true in
    scan t (fun ~cycle ~values ~changes ->
        if !first then begin
          first := false;
          Array.iteri (fun i v -> out.(i) <- [ (cycle, v) ]) values
        end
        else
          List.iter (fun (i, _) -> out.(i) <- (cycle, values.(i)) :: out.(i)) changes;
        true);
    Array.map List.rev out

  (* Lossless conversion to VCD text.  The defaults (single [top]
     scope, vars in signal order, version "fireaxe probes") make the
     output byte-identical to [Capture.probe_trace] of the same probes
     and samples. *)
  let to_vcd ?(version = "fireaxe probes") t =
    let w = Rtlsim.Vcd.Writer.create ~version () in
    Rtlsim.Vcd.Writer.scope w "top";
    let vars =
      Array.map
        (fun (name, width) -> Rtlsim.Vcd.Writer.var w ~name ~width)
        t.rd_signals
    in
    Rtlsim.Vcd.Writer.upscope w;
    scan t (fun ~cycle ~values ~changes:_ ->
        Rtlsim.Vcd.Writer.time w cycle;
        Array.iteri (fun i v -> Rtlsim.Vcd.Writer.change w vars.(i) v) values;
        true);
    Rtlsim.Vcd.Writer.contents w
end

(* ------------------------------------------------------------------ *)
(* VCD ingestion (for crosschecks)                                     *)
(* ------------------------------------------------------------------ *)

(* Just enough of a VCD parser to semantically compare a store against
   a VCD rendered by this repo: flat var table (scopes recorded but
   names matched scope-free, as our writers emit unique leaf names),
   '#' timestamps, '0'/'1' scalar and 'b...' vector changes. *)
module Vcd_in = struct
  type t = {
    vi_signals : (string * int) array;  (* sanitized leaf name, width *)
    vi_changes : (int * int) list array;  (* per signal, oldest first *)
  }

  let signals t = t.vi_signals

  let changes t name =
    let n = Array.length t.vi_signals in
    let rec go i =
      if i >= n then None
      else if fst t.vi_signals.(i) = name then Some t.vi_changes.(i)
      else go (i + 1)
    in
    go 0

  let parse text =
    let lines = String.split_on_char '\n' text in
    let vars = Hashtbl.create 31 in  (* id -> slot *)
    let names = ref [] in  (* (name, width), newest first *)
    let nslots = ref 0 in
    let body = ref [] in  (* remaining lines after $enddefinitions *)
    let rec header = function
      | [] -> ()
      | line :: rest -> (
        match Libdn.Wire.words line with
        | "$var" :: _kind :: w :: id :: name :: _ ->
          let width =
            match int_of_string_opt w with
            | Some w -> w
            | None -> corrupt "bad $var width %S" w
          in
          Hashtbl.replace vars id !nslots;
          names := (name, width) :: !names;
          incr nslots;
          header rest
        | "$enddefinitions" :: _ -> body := rest
        | _ -> header rest)
    in
    header lines;
    let changes = Array.make !nslots [] in
    let time = ref 0 in
    let record id v =
      match Hashtbl.find_opt vars id with
      | None -> corrupt "change for undeclared id %S" id
      | Some slot -> changes.(slot) <- (!time, v) :: changes.(slot)
    in
    List.iter
      (fun line ->
        if line <> "" then
          match line.[0] with
          | '#' -> (
            match int_of_string_opt (String.sub line 1 (String.length line - 1)) with
            | Some t -> time := t
            | None -> corrupt "bad timestamp %S" line)
          | '0' | '1' ->
            record (String.sub line 1 (String.length line - 1)) (Char.code line.[0] - Char.code '0')
          | 'b' -> (
            match String.index_opt line ' ' with
            | None -> corrupt "bad vector change %S" line
            | Some sp ->
              let bits = String.sub line 1 (sp - 1) in
              let id = String.sub line (sp + 1) (String.length line - sp - 1) in
              let v = ref 0 in
              String.iter
                (fun c ->
                  v := (!v lsl 1) lor (if c = '1' then 1 else 0))
                bits;
              record id !v)
          | '$' -> ()  (* $dumpvars etc. *)
          | _ -> ())
      !body;
    {
      vi_signals = Array.of_list (List.rev !names);
      vi_changes = Array.map List.rev changes;
    }
end

let sanitize = Rtlsim.Vcd.sanitize

(* Semantic store-vs-VCD comparison: every store signal must have a VCD
   var of the same sanitized leaf name with an identical (cycle, value)
   change list.  VCD-only vars (e.g. channel-depth tracks) are ignored.
   Returns human-readable divergence lines; [] certifies a match. *)
let diff_vcd reader vcd_text =
  let vcd = Vcd_in.parse vcd_text in
  let lists = Reader.change_lists reader in
  let sigs = Reader.signals reader in
  let issues = ref [] in
  Array.iteri
    (fun i (name, width) ->
      let want = lists.(i) in
      match Vcd_in.changes vcd (sanitize name) with
      | None -> issues := Printf.sprintf "%s: missing from VCD" name :: !issues
      | Some got ->
        (match
           Array.to_list (Vcd_in.signals vcd)
           |> List.find_opt (fun (n, _) -> n = sanitize name)
         with
        | Some (_, w) when w <> width ->
          issues := Printf.sprintf "%s: width %d in store, %d in VCD" name width w :: !issues
        | _ ->
          let rec cmp a b =
            match (a, b) with
            | [], [] -> ()
            | (c, v) :: a', (c', v') :: b' when c = c' && v = v' -> cmp a' b'
            | (c, v) :: _, (c', v') :: _ ->
              issues :=
                Printf.sprintf "%s: store has %d@%d, VCD has %d@%d" name v c v' c'
                :: !issues
            | (c, v) :: _, [] ->
              issues := Printf.sprintf "%s: store has %d@%d past VCD end" name v c :: !issues
            | [], (c, v) :: _ ->
              issues := Printf.sprintf "%s: VCD has %d@%d past store end" name v c :: !issues
          in
          cmp want got))
    sigs;
  List.rev !issues

(* Store-vs-store comparison under the same contract. *)
let diff_stores a b =
  let issues = ref [] in
  let sa = Reader.signals a and sb = Reader.signals b in
  if sa <> sb then issues := [ "signal tables differ" ]
  else begin
    let la = Reader.change_lists a and lb = Reader.change_lists b in
    Array.iteri
      (fun i (name, _) ->
        if la.(i) <> lb.(i) then
          issues := Printf.sprintf "%s: change lists differ" name :: !issues)
      sa
  end;
  List.rev !issues
