type t = { capacity_words : int }

let fail fmt = Db_util.Error.failf_at ~component:"buffer-model" fmt

let make ~capacity_words =
  if capacity_words <= 0 then fail "make: capacity must be positive (got %d)" capacity_words;
  { capacity_words }

let holds t ~words = words <= t.capacity_words
