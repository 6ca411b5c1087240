"""Semantic contract rule over the cppmodel digests.

  R9  checkpoint field coverage -- every non-static, non-derived data
      member of a class with a checkpoint(Archive &) walk must be
      referenced by it (delegation followed one level into same-class
      helpers), or carry `// detlint-transient(reason)`.  Transient
      annotations are themselves stale-checked: one on an exempt
      member, on a member of a non-checkpointed class, or on a member
      that IS referenced by the walk is an error.

One walk both saves and restores, so there is no second function
whose layout could drift from the first.  The rule reads only the
digests -- all heavy parsing happened in cppmodel (and is served from
the incremental cache on warm runs).
"""

# Fields with these flags are not checkpoint-owned state:
# references/pointers are wiring fixed at construction, mutable
# members are derived caches by house convention, const members are
# immutable, statics are not per-instance state.
R9_EXEMPT_FLAGS = frozenset(("static", "ref", "ptr", "mutable",
                             "const"))


class ClassModel:
    """One class resolved across its declaration file and every file
    contributing method bodies."""

    def __init__(self, name, path, line, digest):
        self.name = name
        self.path = path          # declaration file
        self.line = line
        self.fields = digest["fields"]
        self.decl_methods = digest["methods"]
        self.bodies = {}          # method name -> [facts + "path"]

    def add_body(self, facts):
        self.bodies.setdefault(facts["name"], []).append(facts)

    def body(self, name):
        lst = self.bodies.get(name)
        return lst[0] if lst else None

    def is_serializable(self):
        return "checkpoint" in set(self.bodies) | set(self.decl_methods)

    # ------------------------------------------------ reference sets

    def refs_one_level(self, method_name):
        """Identifiers referenced by `method_name`'s body plus the
        bodies of same-class helpers it calls (one delegation
        level).  None when no body is available."""
        top = self.body(method_name)
        if top is None:
            return None
        idents = set(top["idents"])
        for callee in top["calls"]:
            for facts in self.bodies.get(callee, ()):
                idents.update(facts["idents"])
        return idents


# --------------------------------------------------------------- R9

def check_r9(cls, report, transient_for):
    """`transient_for(path, line)` returns the Transient annotation
    sitting on that line or the line above, or None; the rule marks
    the ones it honors used and reports the stale ones itself."""
    if not cls.is_serializable():
        return
    refs = cls.refs_one_level("checkpoint")
    if refs is None:
        # Body outside the scanned set: nothing to check, and give
        # existing transient annotations the benefit of the doubt.
        for field in cls.fields:
            tr = transient_for(cls.path, field["line"])
            if tr is not None:
                tr.used = True
        return
    for field in cls.fields:
        name = field["name"]
        exempt = bool(set(field["flags"]) & R9_EXEMPT_FLAGS)
        tr = transient_for(cls.path, field["line"])
        if tr is not None:
            tr.used = True
            if exempt:
                report("stale-transient", cls.path, tr.line,
                       "detlint-transient on '%s' is redundant: "
                       "%s members are exempt from R9 coverage"
                       % (name, "/".join(sorted(
                           set(field["flags"]) & R9_EXEMPT_FLAGS))))
            elif name in refs:
                report("stale-transient", cls.path, tr.line,
                       "detlint-transient on '%s' is stale: the "
                       "field is referenced by checkpoint; remove "
                       "the annotation" % name)
            continue
        if not exempt and name not in refs:
            report("R9", cls.path, field["line"],
                   "serializable class '%s' never references field "
                   "'%s' in checkpoint; every data member must be "
                   "walked by checkpoint or carry "
                   "`// detlint-transient(reason)`" % (cls.name, name))
