type t = {
  store : Store.t option;
  cache_verify : bool;
  faults : Fault.t;
  trace : Instrument.t;
  scope : string list;
}

let default () =
  { store = Store.installed ();
    cache_verify = false;
    faults = Fault.none;
    trace = Instrument.off;
    scope = [] }

let in_scope t label = { t with scope = label :: t.scope }
