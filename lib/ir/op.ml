(* The IR's operator vocabulary is the frontend's: one type, defined in
   [Db_nn.Layer]. *)

include Db_nn.Layer
