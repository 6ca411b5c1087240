"""Semantic contract rules over the cppmodel digests.

  R9  checkpoint field coverage -- every non-static, non-derived data
      member of a class with a saveState/loadState pair must be
      referenced by both (delegation followed one level into
      same-class helpers), or carry `// detlint-transient(reason)`.
      Transient annotations are themselves stale-checked: one on an
      exempt member, on a member of a non-checkpointed class, or on a
      member that IS fully referenced is an error.

  R10 save/load symmetry -- the serialization op sequences of a
      saveState/loadState pair must match in kind and shape: same
      primitive widths in the same order, loops against loops,
      conditional sections against conditional sections.  Count
      expressions are shape-checked: a count written from one
      container with the loop walking another, or a count read into
      one variable with the loop bounded by another, is flagged.

These rules read only the digests -- all heavy parsing happened in
cppmodel (and is served from the incremental cache on warm runs).
"""

import re

# Fields with these flags are not checkpoint-owned state:
# references/pointers are wiring fixed at construction, mutable
# members are derived caches by house convention, const members are
# immutable, statics are not per-instance state.
R9_EXEMPT_FLAGS = frozenset(("static", "ref", "ptr", "mutable",
                             "const"))

SIZE_ARG_RE = re.compile(
    r"^([A-Za-z_][\w.\->]*?)\s*\.\s*size\s*\(\s*\)$")
PLAIN_BOUND_RE = re.compile(
    r"[<>]=?\s*([A-Za-z_]\w*)\s*(?:;|\)|$)")
RANGE_FOR_RE = re.compile(r":\s*[&\s]*([A-Za-z_]\w*)\s*$")


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
        self.free = {}            # free-function name -> ops

    def add_body(self, facts):
        self.bodies.setdefault(facts["name"], []).append(facts)

    def body(self, name):
        lst = self.bodies.get(name)
        return lst[0] if lst else None

    def is_serializable(self):
        have = set(self.bodies) | set(self.decl_methods)
        return "saveState" in have and "loadState" in have

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
    save_refs = cls.refs_one_level("saveState")
    load_refs = cls.refs_one_level("loadState")
    if save_refs is None or load_refs is None:
        # Bodies outside the scanned set: nothing to check, and give
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
        in_save = name in save_refs
        in_load = name in load_refs
        if tr is not None:
            tr.used = True
            if exempt:
                report("stale-transient", cls.path, tr.line,
                       "detlint-transient on '%s' is redundant: "
                       "%s members are exempt from R9 coverage"
                       % (name, "/".join(sorted(
                           set(field["flags"]) & R9_EXEMPT_FLAGS))))
            elif in_save and in_load:
                report("stale-transient", cls.path, tr.line,
                       "detlint-transient on '%s' is stale: the "
                       "field is referenced in both saveState and "
                       "loadState; remove the annotation" % name)
            continue
        if exempt:
            continue
        missing = []
        if not in_save:
            missing.append("saveState")
        if not in_load:
            missing.append("loadState")
        if missing:
            report("R9", cls.path, field["line"],
                   "serializable class '%s' never references field "
                   "'%s' in %s; every data member must be "
                   "checkpointed by both saveState and loadState or "
                   "carry `// detlint-transient(reason)`"
                   % (cls.name, name, " or ".join(missing)))


# -------------------------------------------------------------- R10

def _normalize(seq, free):
    """Splice known free helpers, make unknown calls transparent,
    drop structure that carries no ops."""
    out = []
    for el in seq:
        t = el["t"]
        if t == "call":
            helper = free.get(el["name"])
            args = _normalize(el.get("args", []), free)
            if helper is not None:
                spliced = _normalize(
                    [dict(e) for e in helper], free)
                if args:
                    # Callback idiom (saveSortedMap): per-entry ops
                    # passed as a lambda run inside the helper's
                    # element loop.
                    target = next(
                        (e for e in reversed(spliced)
                         if e["t"] == "loop"), None)
                    if target is not None:
                        target["body"] = (target["body"] + args)
                    else:
                        spliced.extend(args)
                for e in spliced:
                    e["line"] = el["line"]
                out.extend(spliced)
            else:
                out.extend(args)
        elif t == "loop":
            body = _normalize(el["body"], free)
            if body:
                out.append({**el, "body": body})
        elif t == "opt":
            then = _normalize(el["then"], free)
            els = _normalize(el["els"], free)
            if then or els:
                out.append({**el, "then": then, "els": els})
        else:
            out.append(el)
    return out


def _describe(el):
    t = el["t"]
    if t == "p":
        return "%s (line %d)" % (el["k"], el["line"])
    if t == "s":
        return "saveState/loadState delegation (line %d)" % el["line"]
    if t == "g":
        return "stats-group section (line %d)" % el["line"]
    if t == "loop":
        return "loop of %d op(s) (line %d)" % (len(el["body"]),
                                               el["line"])
    if t == "opt":
        return "conditional section (line %d)" % el["line"]
    return "%s (line %d)" % (t, el["line"])


def _compare(cls, spath, lpath, a, b, report, where):
    """First structural divergence between save-seq a and load-seq b;
    True when a finding was reported."""
    for i in range(min(len(a), len(b))):
        ea, eb = a[i], b[i]
        if ea["t"] == "p" and eb["t"] == "p":
            if ea["k"] != eb["k"]:
                report("R10", spath, ea["line"],
                       "save/load symmetry broken in '%s'%s: "
                       "saveState writes %s where loadState reads "
                       "%s -- a type-width or order mismatch "
                       "corrupts every later field of the section"
                       % (cls.name, where, _describe(ea),
                          _describe(eb)))
                return True
            continue
        if ea["t"] != eb["t"]:
            report("R10", spath, ea["line"],
                   "save/load symmetry broken in '%s'%s: saveState "
                   "has %s where loadState has %s"
                   % (cls.name, where, _describe(ea), _describe(eb)))
            return True
        if ea["t"] == "loop":
            if _compare(cls, spath, lpath, ea["body"], eb["body"],
                        report, " (inside a loop)"):
                return True
        elif ea["t"] == "opt":
            if _compare(cls, spath, lpath, ea["then"], eb["then"],
                        report, " (inside a conditional)"):
                return True
            if _compare(cls, spath, lpath, ea["els"], eb["els"],
                        report, " (inside an else branch)"):
                return True
        elif ea["t"] == "call":
            if ea.get("canon") != eb.get("canon"):
                report("R10", spath, ea["line"],
                       "save/load symmetry broken in '%s'%s: "
                       "saveState calls helper '%s' where loadState "
                       "calls '%s'"
                       % (cls.name, where, ea["name"], eb["name"]))
                return True
    if len(a) != len(b):
        longer, path_ = (a, spath) if len(a) > len(b) else (b, lpath)
        el = longer[min(len(a), len(b))]
        report("R10", path_, el["line"],
               "save/load symmetry broken in '%s'%s: saveState has "
               "%d serialization step(s) but loadState has %d; "
               "first unmatched: %s"
               % (cls.name, where, len(a), len(b), _describe(el)))
        return True
    return False


def _head_idents(head):
    return set(re.findall(r"[A-Za-z_]\w*", head or ""))


def _check_count_shapes(cls, path, seq, side, report):
    """Count-expression shape: the prim immediately before a loop
    must agree with the loop's bound/container."""
    found = False
    for i, el in enumerate(seq):
        if el["t"] == "loop":
            prev = seq[i - 1] if i > 0 else None
            head = el.get("head", "")
            if prev is not None and prev["t"] == "p":
                if side == "save":
                    m = SIZE_ARG_RE.match(prev.get("arg", ""))
                    cont = m.group(1) if m else None
                    if (cont and re.match(r"^[A-Za-z_]\w*$", cont)
                            and cont not in _head_idents(head)):
                        report("R10", path, prev["line"],
                               "count-expression mismatch in '%s': "
                               "saveState writes '%s.size()' but "
                               "the following loop iterates over "
                               "'%s'" % (cls.name, cont,
                                         " ".join(head.split())[:40]))
                        found = True
                else:
                    asg = prev.get("asg")
                    bm = PLAIN_BOUND_RE.search(head)
                    if (asg and bm and bm.group(1) != asg
                            and asg not in _head_idents(head)):
                        report("R10", path, el["line"],
                               "count-expression mismatch in '%s': "
                               "loadState reads the element count "
                               "into '%s' but the following loop is "
                               "bounded by '%s'"
                               % (cls.name, asg, bm.group(1)))
                        found = True
            found |= _check_count_shapes(cls, path, el["body"],
                                         side, report)
        elif el["t"] == "opt":
            found |= _check_count_shapes(cls, path, el["then"],
                                         side, report)
            found |= _check_count_shapes(cls, path, el["els"],
                                         side, report)
    return found


def check_r10(cls, report):
    save = cls.body("saveState")
    load = cls.body("loadState")
    if save is None or load is None:
        return
    sops = _normalize(save.get("ops", []), cls.free)
    lops = _normalize(load.get("ops", []), cls.free)
    spath = save["path"]
    lpath = load["path"]
    shape = _check_count_shapes(cls, spath, sops, "save", report)
    shape |= _check_count_shapes(cls, lpath, lops, "load", report)
    if not shape:
        _compare(cls, spath, lpath, sops, lops, report, "")
