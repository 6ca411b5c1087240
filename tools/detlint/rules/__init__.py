"""Rule registry.

RULESET_VERSION keys the incremental cache: bump it whenever any
rule's behavior changes, so stale cached findings can never leak into
a run with different rules.
"""

RULESET_VERSION = "detlint-2.3"

RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9")

RULE_DOCS = {
    "R1": "banned nondeterminism sources (wall clocks, rand, opaque "
          "scheduled lambdas)",
    "R2": "iteration over unordered containers feeding state",
    "R3": "comparison/hashing/keying on raw pointer values",
    "R4": "Clocked subclasses with state must implement the full "
          "contract (nextWakeTick, checkpoint)",
    "R5": "MITTS_ASSERT-bearing headers must compile standalone",
    "R6": "the analytic tier stays closed-form (no Clocked, no "
          "event loop)",
    "R7": "MemRequest objects are born only in the RequestPool arena",
    "R8": "no arrival-order accumulation in src/orchestrate/ merges",
    "R9": "checkpoint field coverage: every serializable data member "
          "is referenced by the class's checkpoint walk or is "
          "annotated detlint-transient",
}
