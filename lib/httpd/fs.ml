type t = { fs : Vfs.t }

let create space = { fs = Vfs.format space ~blocks:2048 () }

let gen_body size =
  String.init size (fun i -> Char.chr (Char.code 'a' + (i mod 23)))

let rec ensure_dirs t path =
  match String.rindex_opt path '/' with
  | Some i when i > 0 ->
      let dir = String.sub path 0 i in
      if not (Vfs.exists t.fs dir) then begin
        ensure_dirs t dir;
        Vfs.mkdir t.fs dir
      end
  | Some _ | None -> ()

let add t ~path ~size =
  ensure_dirs t path;
  Vfs.create t.fs ~path ~data:(gen_body size)

let lookup t path = Vfs.file_size t.fs path
let read_body t path = Vfs.read_all t.fs path

let read_body_into t path b pos =
  Vfs.read_into_bytes t.fs ~path ~off:0 ~len:Vfs.max_file_size b pos
let vfs t = t.fs
