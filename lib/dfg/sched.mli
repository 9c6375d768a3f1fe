(** Scheduling (§3.5): initiation intervals and issue times under the
    datapath's memory-port budget.

    [list_schedule] models the original, non-overlapped execution (II =
    schedule length); [modulo_schedule] the pipelined one, from one II
    search: a greedy SDC-style placement at max(RecMII, ResMII) —
    optimal when it succeeds — else the optimum that
    [optimal_schedule] (branch-and-bound over the modulo reservation
    table) certifies.  Every pipelined II is therefore proven optimal,
    unless the exact budget runs out, which the schedule's note says.
    [check_schedule] validates any schedule against the raw constraint
    system, independently of every backend. *)

type config = { mem_ports : int (** references per clock; §6.1 uses 2 *) }

val default_config : config

type schedule = {
  s_ii : int;  (** initiation interval in cycles *)
  s_times : int array;  (** issue cycle of every node *)
  s_length : int;  (** makespan of one iteration *)
}

(** ceil(memory ops / ports). *)
val resource_mii : config -> Graph.t -> int

(** max(1, RecMII, ResMII): the pipelined lower bound. *)
val min_ii : config -> Graph.t -> int

(** Resource-constrained acyclic scheduling of one iteration
    (distance-0 edges only). *)
val list_schedule : ?cfg:config -> Graph.t -> schedule

(** Verify a schedule against the constraint system itself — every
    dependence edge ([t(dst) >= t(src) + delay(src) - II*distance]),
    every modulo reservation row (at most [mem_ports] memory ops per
    residue class mod II), non-negative issue times, and makespan
    consistency.  [Error] carries one message per violated constraint.
    Shared post-condition for all three scheduling backends. *)
val check_schedule :
  ?cfg:config -> Graph.t -> schedule -> (unit, string list) result

(** Verdict of the exact search. *)
type exact_status =
  | Exact_optimal  (** witness at the first feasible II: certified *)
  | Exact_unknown  (** the budget ran out before a witness was found *)

type exact = {
  e_status : exact_status;
  e_schedule : schedule option;  (** the certified witness *)
  e_min_ii : int;  (** the recurrence/resource lower bound *)
  e_proved : int;
      (** smallest II NOT proven infeasible: every II below it was
          refuted by exhaustive search *)
  e_expansions : int;  (** branch-and-bound nodes expanded *)
  e_effort_exhausted : bool;
}

(** The exact II search: iterate candidate IIs upward from {!min_ii},
    proving each infeasible (branch-and-bound over the modulo residues
    of the memory operations) or returning a witness schedule, so the
    first feasible II is certified optimal.  When the deterministic
    [effort] budget (edge relaxations) runs out mid-proof the result
    is [Exact_unknown], with the IIs below [e_proved] refuted. *)
val optimal_schedule : ?cfg:config -> ?effort:int -> Graph.t -> exact

(** Default effort budget of {!optimal_schedule} (edge relaxations). *)
val default_exact_effort : int

(** The pipelined schedule: one greedy placement at {!min_ii}, which
    is optimal when it succeeds; otherwise {!optimal_schedule}'s
    certified optimum, placed greedily once more at that II when it is
    above [min_ii] (else, or on failure, the exact witness).  Only when
    the [exact_effort] budget runs out does the II walk upward from the
    smallest unrefuted II.  Always succeeds — an II at or above the
    acyclic list-schedule length takes the list schedule.  [effort]
    bounds the greedy placements' total edge relaxations; exhausting
    it degrades to the list schedule. *)
val modulo_schedule :
  ?cfg:config -> ?effort:int -> ?exact_effort:int -> Graph.t -> schedule

(** [modulo_schedule] plus its note: [Some message] when the [effort]
    budget ran out and the non-overlapped fallback was returned, or
    when the exact budget ran out and the II is not proven optimal. *)
val modulo_schedule_note :
  ?cfg:config ->
  ?effort:int ->
  ?exact_effort:int ->
  Graph.t ->
  schedule * string option

(** Default effort budget of {!modulo_schedule}'s greedy placements
    (edge relaxations). *)
val default_effort : int

(** Raised by {!try_modulo} when its [effort] runs out. *)
exception Out_of_effort

(** The greedy placement {!modulo_schedule} runs at one II: issue times
    from the least fixpoint of the dependence constraints, and while a
    modulo row holds more memory ops than the ports, bump the latest op
    of the lowest such row (ties to the highest node id) one cycle and
    re-solve incrementally.  [None] when the II has a positive cycle or
    the [64 + 4 · memory ops · ii] bumps run out.  A bump costs the
    re-solve plus the memory ops it moved: the modulo rows, their
    member lists and the lowest oversubscribed row are kept up to date
    rather than rebuilt.  Every edge relaxation takes one unit from
    [effort].
    @raise Out_of_effort when [effort] runs out. *)
val try_modulo :
  config -> Graph.t -> effort:int ref -> ii:int -> int array option

(** Kept only so the frozen perf harness ([bench/perf]) compiles: the
    mode of the deleted exact-II pass, which now does nothing. *)
type exact_mode = Exact_off

(** Hardware registers implied by a schedule: one per move node plus
    one per II-window each computed value stays live (modulo variable
    expansion). *)
val register_estimate : Graph.t -> schedule -> int
