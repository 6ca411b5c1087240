"""Lightweight C++ class/field/method extractor (no libclang).

Built on lexer.strip_code: works on comment/string-stripped text, so
structure scanning never trips over literals.  The extractor is a
*model builder*, not a parser -- it relies on two strong house-style
invariants of this repository:

  * data members end in a trailing underscore (`queueLatency_`),
  * out-of-line definitions are written `Type\nClass::method(...)`.

Each scanned file is reduced to a JSON-serializable *digest*:
declared classes (name, bases, fields with flags and annotation
lines, declared method names) plus every method *body* found in the
file (in-class or out-of-line), pre-chewed into the facts the
semantic rule needs -- referenced identifiers and same-class calls.
Digests are what the incremental cache stores, so warm runs skip
parsing entirely.
"""

import os
import re

from lexer import strip_code, balanced_span, line_of

KEYWORDS = frozenset((
    "if", "else", "for", "while", "do", "switch", "case", "return",
    "sizeof", "static_cast", "const_cast", "reinterpret_cast",
    "dynamic_cast", "new", "delete", "throw", "catch", "try",
    "alignof", "decltype", "typeid", "using", "namespace", "template",
    "typename", "operator", "static_assert", "default", "break",
    "continue", "goto", "auto", "const", "constexpr", "struct",
    "class", "enum", "public", "private", "protected", "virtual",
    "override", "final", "noexcept", "explicit", "inline", "static",
    "mutable", "friend", "void", "bool", "int", "unsigned", "char",
    "short", "long", "float", "double", "true", "false", "nullptr",
    "this", "assert", "MITTS_ASSERT",
))

CLASS_RE = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::\s*([^{;]*?))?\{")
FIELD_NAME_RE = re.compile(r"\b([A-Za-z_]\w*_)\s*(?=[,;={\[])")
QUAL_DEF_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*::\s*(~?[A-Za-z_]\w*)\s*\(")
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
SELF_CALL_RE = re.compile(
    r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")

def _body_facts(code, body_start, body_end):
    """Digest one method body."""
    body = code[body_start:body_end]
    idents = sorted(set(IDENT_RE.findall(body)))
    self_calls = sorted({m.group(1)
                         for m in SELF_CALL_RE.finditer(body)
                         if m.group(1) not in KEYWORDS})
    # `this->helper(...)` is a same-class call the bare pattern misses.
    self_calls = sorted(set(self_calls) | {
        m.group(1)
        for m in re.finditer(r"\bthis\s*->\s*([A-Za-z_]\w*)\s*\(",
                             body)})
    return {"idents": idents, "calls": self_calls}


def _segments(body):
    """Top-level statements of a class body: (offset, text, body_span)
    where body_span is the relative span of a trailing {...} block,
    or None.  Nested braces inside a statement (brace-init) stay part
    of it; a block following a `)` or `=` ends the segment (function
    body / in-class initializer function try blocks)."""
    segs = []
    i = 0
    n = len(body)
    seg_start = 0
    depth_paren = 0
    while i < n:
        c = body[i]
        if c in "([":
            depth_paren += 1
        elif c in ")]":
            depth_paren -= 1
        elif c == "{" and depth_paren == 0:
            close = balanced_span(body, i, "{", "}")
            if close < 0:
                close = n
            # Does this brace end the declarator (function body,
            # class body) or is it an initializer (`= {...}`,
            # `x_{...}`)?  Initializers are followed by `;`.
            j = close
            while j < n and body[j] in " \t\n":
                j += 1
            if j < n and body[j] == ";":
                i = close      # initializer: keep scanning
                continue
            segs.append((seg_start, body[seg_start:close],
                         (i - seg_start, close - seg_start)))
            seg_start = close
            i = close
            continue
        elif c == ";" and depth_paren == 0:
            segs.append((seg_start, body[seg_start:i + 1], None))
            seg_start = i + 1
        i += 1
    return segs


def _field_flags(decl):
    """Flags for a member declaration (initializer stripped)."""
    head = decl.split("=", 1)[0]
    flags = []
    if re.search(r"\bstatic\b", head):
        flags.append("static")
    if re.search(r"\bmutable\b", head):
        flags.append("mutable")
    if re.search(r"\bconst\b", head):
        flags.append("const")
    if "&" in head:
        flags.append("ref")
    if "*" in head:
        flags.append("ptr")
    return flags


def _strip_nested_class_bodies(body):
    """Blank nested class/struct bodies (keeping line structure) so
    their members don't count for the outer class."""
    out = list(body)
    for m in CLASS_RE.finditer(body):
        brace = body.find("{", m.end() - 1)
        close = balanced_span(body, brace, "{", "}")
        if close < 0:
            continue
        for k in range(brace + 1, close - 1):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def _method_name(seg_head):
    """Declarator name for a segment known to contain `(` before any
    `=`; None if it doesn't look like a function."""
    # Angle brackets may hide parens (std::function<void()>); take
    # the first `(` at angle depth 0.
    angle = 0
    for i, c in enumerate(seg_head):
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "(" and angle == 0:
            m = re.search(r"(~?[A-Za-z_]\w*)\s*$", seg_head[:i])
            if not m or m.group(1) in KEYWORDS:
                return None, -1
            return m.group(1), i
    return None, -1


def digest_file(path, raw):
    """Full per-file digest; see module docstring."""
    code = strip_code(raw)
    classes = []
    methods = []

    spans = []
    for m in CLASS_RE.finditer(code):
        if m.group(1) == "enum":
            continue
        brace = code.find("{", m.end() - 1)
        close = balanced_span(code, brace, "{", "}")
        if close < 0:
            continue
        spans.append((m.group(2), m.start(), brace, close,
                      m.group(3) or ""))

    access_re = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")

    class_regions = []
    for name, start, brace, close, bases in spans:
        body = _strip_nested_class_bodies(code[brace + 1:close - 1])
        # Blank access labels in place (a declaration on the same
        # segment as `private:` must still be seen).
        body = access_re.sub(lambda m: " " * len(m.group(0)), body)
        base_names = [b for b in re.findall(r"[A-Za-z_]\w*", bases)
                      if b not in ("public", "private", "protected",
                                   "virtual", "final")]
        fields = []
        decl_methods = []
        for off, seg, body_span in _segments(body):
            abs_off = brace + 1 + off
            seg_line = line_of(code, abs_off + len(seg)
                               - len(seg.lstrip()))
            stripped = seg.strip()
            if (not stripped
                    or stripped.startswith(("public", "private",
                                            "protected", "using ",
                                            "typedef", "friend",
                                            "enum ", "enum;",
                                            "static_assert"))):
                continue
            head = seg if body_span is None else seg[:body_span[0]]
            eq = head.find("=")
            par = _method_name(head if eq < 0 else head[:eq])
            mname, par_pos = par
            if mname is not None and par_pos >= 0:
                decl_methods.append(mname)
                if body_span is not None:
                    b0 = brace + 1 + off + body_span[0] + 1
                    b1 = brace + 1 + off + body_span[1] - 1
                    facts = _body_facts(code, b0, b1)
                    facts.update({"cls": name, "name": mname,
                                  "line": seg_line})
                    methods.append(facts)
                continue
            if body_span is not None:
                continue  # nested construct remains: skip
            for fm in FIELD_NAME_RE.finditer(head):
                fields.append({
                    "name": fm.group(1),
                    "line": line_of(code, abs_off + fm.start(1)),
                    "flags": _field_flags(head),
                })
        classes.append({
            "name": name,
            "line": line_of(code, start),
            "bases": base_names,
            "fields": fields,
            "methods": decl_methods,
        })
        class_regions.append((brace, close))

    def _in_class(pos):
        return any(b <= pos < c for b, c in class_regions)

    # Out-of-line definitions: Class::method(...) [const] [: init] {
    for m in QUAL_DEF_RE.finditer(code):
        if _in_class(m.start()):
            continue
        params_end = balanced_span(code, m.end() - 1)
        if params_end < 0:
            continue
        j = params_end
        while True:
            ws = re.compile(r"\s*(const|noexcept|override|final)\b")
            wm = ws.match(code, j)
            if not wm:
                break
            j = wm.end()
        k = j
        while k < len(code) and code[k] in " \t\n":
            k += 1
        if k < len(code) and code[k] == ":":
            # constructor init list: scan to the first `{` at depth 0
            depth = 0
            k += 1
            while k < len(code):
                c = code[k]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif c == "{" and depth == 0:
                    break
                elif c == ";" and depth == 0:
                    k = -1
                    break
                k += 1
            if k < 0 or k >= len(code):
                continue
        if k >= len(code) or code[k] != "{":
            continue
        close = balanced_span(code, k, "{", "}")
        if close < 0:
            continue
        facts = _body_facts(code, k + 1, close - 1)
        facts.update({"cls": m.group(1), "name": m.group(2),
                      "line": line_of(code, m.start())})
        methods.append(facts)

    return {"classes": classes, "methods": methods}


def sibling_paths(path):
    """Companion files that complete a class's model: the same-stem
    header for a .cc and vice versa."""
    stem, ext = os.path.splitext(path)
    exts = ((".hh", ".hpp", ".h") if ext in (".cc", ".cpp")
            else (".cc", ".cpp"))
    return [stem + e for e in exts if os.path.isfile(stem + e)]
