"""Lexical groundwork shared by every detlint pass.

Provides comment/string stripping that preserves line structure (so
rule regexes never match inside either), balanced-delimiter scanning,
and the annotation parsers for the two inline suppression idioms:

  // detlint-allow(Rn[,Rm]): reason      -- suppress a finding on this
                                            line or the line below
  // detlint-transient(reason)           -- R9: this field is derived /
                                            rebuilt state, deliberately
                                            absent from the checkpoint
                                            walk

Both are stale-checked by the driver: an annotation that stops
suppressing anything is itself an error.
"""

import re

ALLOW_RE = re.compile(
    r"detlint-allow\(\s*(?P<rules>[A-Za-z0-9_,\s]+)\s*\)"
    r"(?P<colon>:?)\s*(?P<reason>.*)")
TRANSIENT_RE = re.compile(r"detlint-transient\((?P<reason>[^)]*)\)")
CXX_EXTS = (".hh", ".cc", ".cpp", ".hpp", ".h")


class Allow:
    """One inline detlint-allow annotation."""

    def __init__(self, path, line, rules, reason):
        self.path = path
        self.line = line            # line the annotation sits on
        self.rules = rules
        self.reason = reason
        self.used = False


class Transient:
    """One inline detlint-transient annotation (R9 field opt-out)."""

    def __init__(self, path, line, reason):
        self.path = path
        self.line = line
        self.reason = reason
        self.used = False


def strip_code(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes never match inside either.  Returns the
    stripped text."""
    out = []
    i = 0
    n = len(text)
    state = "code"      # code | line_comment | block_comment | str | chr | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"' and text[max(0, i - 1):i] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:])
                if m:
                    state = "raw"
                    raw_delim = ")" + m.group(1) + '"'
                    out.append('"')
                    i += 1
                else:
                    state = "str"
                    out.append('"')
                    i += 1
            elif c == '"':
                state = "str"
                out.append('"')
                i += 1
            elif c == "'":
                state = "chr"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append('"')
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif c == "\n":   # unterminated; be forgiving
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def balanced_span(text, open_pos, open_ch="(", close_ch=")"):
    """Index one past the matching close for the opener at open_pos,
    or -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def parse_allows(path, raw_lines, known_rules, bad_annotation):
    """Collect inline detlint-allow annotations; malformed ones are
    reported through `bad_annotation(line, message)`."""
    allows = []
    for idx, line in enumerate(raw_lines, start=1):
        if "detlint-allow" not in line:
            continue
        m = ALLOW_RE.search(line)
        if not m:
            bad_annotation(idx,
                           "malformed detlint-allow; expected "
                           "`// detlint-allow(Rn): reason`")
            continue
        rules = [r.strip() for r in m.group("rules").split(",")]
        bad = [r for r in rules if r not in known_rules]
        if bad:
            bad_annotation(idx,
                           "unknown rule %s in detlint-allow "
                           "(known: %s)"
                           % (",".join(bad), " ".join(known_rules)))
            continue
        if m.group("colon") != ":" or not m.group("reason").strip():
            bad_annotation(idx,
                           "detlint-allow(%s) needs a `: reason`"
                           % ",".join(rules))
            continue
        allows.append(Allow(path, idx, rules,
                            m.group("reason").strip()))
    return allows


def parse_transients(path, raw_lines, bad_annotation):
    """Collect inline detlint-transient annotations, keyed by line."""
    out = {}
    for idx, line in enumerate(raw_lines, start=1):
        if "detlint-transient" not in line:
            continue
        m = TRANSIENT_RE.search(line)
        if not m or not m.group("reason").strip():
            bad_annotation(idx,
                           "malformed detlint-transient; expected "
                           "`// detlint-transient(reason)` with a "
                           "non-empty reason")
            continue
        out[idx] = Transient(path, idx, m.group("reason").strip())
    return out
