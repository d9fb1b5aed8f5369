(** Fault-site enumeration: every storage bit of the simulated accelerator
    an SEU can hit, organised as groups so the space stays O(layers), not
    O(bits).

    A group is a contiguous family of same-shaped words (one weight
    tensor, one ROM of the design's Approx-LUT set ({!Db_core.Lut_set},
    labelled [lut/<name>]), one AGU pattern's configuration registers, one
    input blob in the feature buffer, one FSM state register); a campaign
    trial picks a bit uniformly across the total stored-bit count of all
    enabled groups, then a word and bit position inside the chosen
    group. *)

type target_class =
  | Weights
  | Biases
  | Lut_tables
  | Agu_config
  | Data_buffer
  | Control_fsm
  | Grad_buffers  (** training: batch-gradient accumulator banks *)
  | Update_fsm  (** training: per-layer update FSMs + the phase FSM *)

val all_classes : target_class list
(** The inference classes; campaigns over inference designs are
    unchanged by the training extension. *)

val training_classes : target_class list
(** [all_classes] plus [Grad_buffers] and [Update_fsm]. *)

val class_name : target_class -> string

type agu_field = Start | X_length | Y_length | Stride | Offset | Repeat

val agu_fields : agu_field array
(** Indexed by the word offset inside an [Agu_config] group. *)

val agu_register_bits : int
(** Width of each AGU configuration register (24-bit address arithmetic). *)

val fsm_state_bits : int
(** Width of a pattern FSM's state register. *)

type payload =
  | P_param of { node : string; tensor : int }
      (** tensor index within [Db_nn.Params.get] order *)
  | P_lut of { lut : string }  (** a table's name in the design's set *)
  | P_agu of { program : int; transfer : int }
  | P_buffer of { blob : string }
  | P_fsm of { program : int }  (** [-1] is the coordinator FSM *)
  | P_grad of { node : string }  (** owning forward layer *)
  | P_upd_fsm of { node : string }  (** forward layer, or ["phase"] *)

type group = {
  g_class : target_class;
  g_layer : string option;  (** owning layer, for per-layer sensitivity *)
  g_label : string;
  g_words : int;
  g_word_bits : int;  (** stored bits per word, protection included *)
  g_payload : payload;
}

type space = { groups : group array; total_bits : int }

val enumerate :
  ?train:Db_core.Train_builder.t ->
  design:Db_core.Design.t ->
  params:Db_nn.Params.t ->
  input_blob:string ->
  input_words:int ->
  stored_bits:(target_class -> word_bits:int -> int) ->
  targets:target_class list ->
  unit ->
  space
(** Walk the design and build the group table for the enabled classes.
    [stored_bits] maps a class's architectural word width to its stored
    width (protection check bits are fault targets too).  [?train] adds
    the training-only storage (gradient buffers sized at the build's
    accumulator width, update FSMs); without it the space is exactly the
    inference space. *)

val class_words : space -> target_class -> int
(** Total words the space holds for one class. *)

val pick : space -> Db_util.Rng.t -> group * int * int
(** Uniform draw over [space.total_bits]: the group, the word index inside
    it and the bit position inside the stored word. *)
