"""detlint -- determinism & checkpoint-contract linter for mitts-sim.

Passes:
  lexical   R1-R4, R6-R8 pattern rules per file (see rules/lexical.py)
  compile   R5 standalone-header checks (g++ -fsyntax-only)
  semantic  R9 over an extracted class/field/method model
            (checkpoint field coverage; see rules/semantic.py)

Suppressions:
  // detlint-allow(Rn[,Rm]): reason   -- this line or the line below
  // detlint-transient(reason)        -- R9 field opt-out (derived /
                                         rebuilt state)
  tools/detlint/allowlist.txt         -- `<rule> <path-glob> # why`
All three are stale-checked: an annotation or entry that stops
suppressing anything is itself an error.

Results are cached per analysis unit in <root>/.detlint.cache.json,
keyed by rule-set version and the content hashes of every input file,
so warm runs skip all unchanged analysis (use --no-cache to disable).
"""

import argparse
import fnmatch
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import re  # noqa: E402

from lexer import (CXX_EXTS, strip_code, parse_allows,  # noqa: E402
                   parse_transients)
from report import (Finding, sort_key, render_text,  # noqa: E402
                    render_json, render_sarif)
from cache import Cache, content_hash, unit_key  # noqa: E402
import cppmodel  # noqa: E402
from rules import RULES, RULE_DOCS, RULESET_VERSION  # noqa: E402
from rules import lexical  # noqa: E402
from rules import semantic  # noqa: E402

EPILOG = """\
exit codes:
  0  clean: no findings
  1  findings (rule violations, stale suppressions, malformed
     annotations)
  2  usage or internal error (bad arguments, missing src/ under
     --root)
"""


def collect_files(root, subdirs):
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [
                d for d in dirnames
                if d not in ("detlint_fixtures",)
                and not d.startswith("build")
                and not d.startswith(".")]
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTS):
                    files.append(os.path.join(dirpath, fn))
    return sorted(files)


def load_allowlist(path, errors):
    entries = []  # [rule, glob, lineno, used]
    if not os.path.isfile(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for idx, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in RULES:
                errors.append(Finding(
                    "allowlist-syntax", path, idx,
                    "expected `<rule> <path-glob>`"))
                continue
            entries.append([parts[0], parts[1], idx, False])
    return entries


def in_src(root, path):
    rel = os.path.relpath(path, root)
    return rel == "src" or rel.startswith("src" + os.sep)


class _FileStore:
    """Read-once raw content + hash per path."""

    def __init__(self):
        self.entries = {}

    def get(self, path):
        if path not in self.entries:
            try:
                with open(path, encoding="utf-8",
                          errors="replace") as f:
                    raw = f.read()
                self.entries[path] = (raw, content_hash(raw), None)
            except OSError as e:
                self.entries[path] = (None, None, e)
        return self.entries[path]


def _lexical_pass(root, path, raw, raw_lines, report):
    """R1-R4, R6-R8 for one file; returns True when the file is an R5
    candidate (MITTS_ASSERT-bearing header under src/)."""
    code = strip_code(raw)
    rel = os.path.relpath(path, root)
    is_r5 = False
    if in_src(root, path):
        lexical.check_r1(path, code, report)
        lexical.check_r4(path, code, report)
        if rel.startswith(os.path.join("src", "analytic") + os.sep):
            lexical.check_r6(path, code, raw_lines, report)
        if rel.startswith(os.path.join("src", "orchestrate")
                          + os.sep):
            lexical.check_r8(path, code, report)
        if (path.endswith((".hh", ".hpp", ".h"))
                and re.search(r"\bMITTS_ASSERT\b", code)):
            is_r5 = True
    lexical.check_r2(path, code, report)
    lexical.check_r3(path, code, report)
    if rel not in lexical.R7_EXEMPT:
        lexical.check_r7(path, code, report)
    return is_r5


def _build_class_models(root, digests):
    """Resolve every declared class against the method bodies found
    across all digested files."""
    models = {}  # class name -> [ClassModel]
    for path in sorted(digests):
        for cd in digests[path]["classes"]:
            m = semantic.ClassModel(cd["name"], path, cd["line"], cd)
            models.setdefault(cd["name"], []).append(m)

    def owner_for(cls_name, path):
        cands = models.get(cls_name, [])
        if len(cands) == 1:
            return cands[0]
        sibs = set(cppmodel.sibling_paths(path))
        for m in cands:
            if m.path == path or m.path in sibs:
                return m
        here = os.path.dirname(path)
        for m in cands:
            if os.path.dirname(m.path) == here:
                return m
        return None

    for path in sorted(digests):
        for facts in digests[path]["methods"]:
            owner = owner_for(facts["cls"], path)
            if owner is None:
                continue
            facts = dict(facts)
            facts["path"] = path
            owner.add_body(facts)

    flat = [m for lst in models.values() for m in lst]
    flat.sort(key=lambda m: (os.path.relpath(m.path, root),
                             m.line, m.name))
    return flat


def run_scan(root, paths, allow_path, cxx, no_r5, cache, out=None):
    """Scan and return (all findings sorted, exit code)."""
    full_tree = not paths
    if paths:
        files = []
        for p in paths:
            p = os.path.abspath(p)
            if os.path.isdir(p):
                rel = os.path.relpath(p, root)
                files.extend(collect_files(root, [rel]))
            elif p.endswith(CXX_EXTS):
                files.append(p)
        files = sorted(set(files))
    else:
        files = collect_files(root, ["src", "bench", "tools",
                                     "tests"])

    errors = []
    allowlist = load_allowlist(allow_path, errors)
    store = _FileStore()

    # Digest the siblings of explicitly-listed files too, so partial
    # scans (lint.sh --changed) still see whole classes.
    lint_files = list(files)
    digest_files = sorted(set(files).union(
        s for f in files for s in cppmodel.sibling_paths(f)))

    raw_findings = []     # pre-suppression rule findings
    digests = {}          # path -> model digest
    allows_by_path = {}
    transients = {}       # path -> {line: Transient}
    r5_headers = []

    for path in digest_files:
        raw, fhash, err = store.get(path)
        if err is not None:
            if path in files:
                errors.append(Finding("io", path, 1, str(err)))
            continue
        raw_lines = raw.splitlines()
        rel = os.path.relpath(path, root)
        do_lint = path in set(lint_files)

        if do_lint:
            allows_by_path[path] = parse_allows(
                path, raw_lines, RULES,
                lambda line, msg, p=path: errors.append(
                    Finding("allow-syntax", p, line, msg)))
        transients[path] = parse_transients(
            path, raw_lines,
            lambda line, msg, p=path: errors.append(
                Finding("transient-syntax", p, line, msg)))

        sib_hashes = []
        for sib in cppmodel.sibling_paths(path):
            sraw, shash, serr = store.get(sib)
            if serr is None:
                sib_hashes.append(shash)
        key = unit_key(RULESET_VERSION, "file", rel, fhash,
                       *sib_hashes)
        hit = cache.get(key)
        if hit is not None:
            digests[path] = hit["digest"]
            if do_lint:
                raw_findings.extend(
                    Finding.from_dict(d, root)
                    for d in hit["findings"])
                if hit["r5"]:
                    r5_headers.append(path)
            continue

        file_findings = []

        def report(rule, line, message, p=path):
            file_findings.append(Finding(rule, p, line, message))

        is_r5 = _lexical_pass(root, path, raw, raw_lines, report)
        digest = cppmodel.digest_file(path, raw)
        digests[path] = digest
        cache.put(key, {
            "findings": [f.to_dict(root) for f in file_findings],
            "digest": digest,
            "r5": is_r5,
        })
        if do_lint:
            raw_findings.extend(file_findings)
            if is_r5:
                r5_headers.append(path)

    # ---------------------------------------------- semantic pass

    def transient_for(path, line):
        t = transients.get(path, {})
        return t.get(line) or t.get(line - 1)

    lint_set = set(lint_files)
    for model in _build_class_models(root, digests):
        if model.path not in lint_set:
            continue

        def report(rule, path, line, message):
            raw_findings.append(Finding(rule, path, line, message))

        semantic.check_r9(model, report, transient_for)

    # --------------------------------------------- suppressions

    findings = []
    internal = {"stale-allow", "stale-allowlist", "stale-transient",
                "allow-syntax", "allowlist-syntax",
                "transient-syntax", "io"}
    for f_ in raw_findings:
        if f_.rule in internal:
            findings.append(f_)
            continue
        rel = os.path.relpath(f_.path, root)
        suppressed = False
        for a in allows_by_path.get(f_.path, ()):
            if f_.rule in a.rules and a.line in (f_.line,
                                                 f_.line - 1):
                a.used = True
                suppressed = True
        for entry in allowlist:
            if entry[0] == f_.rule and fnmatch.fnmatch(rel,
                                                       entry[1]):
                entry[3] = True
                suppressed = True
        if not suppressed:
            findings.append(f_)

    for path, allows in sorted(allows_by_path.items()):
        rel = os.path.relpath(path, root)
        for a in allows:
            if not a.used:
                errors.append(Finding(
                    "stale-allow", path, a.line,
                    "detlint-allow(%s) at %s:%d suppresses nothing; "
                    "remove it or fix the rule reference"
                    % (",".join(a.rules), rel.replace(os.sep, "/"),
                       a.line)))
    for path, trs in sorted(transients.items()):
        if path not in lint_set:
            continue
        rel = os.path.relpath(path, root)
        for line in sorted(trs):
            t = trs[line]
            if not t.used:
                errors.append(Finding(
                    "stale-transient", path, t.line,
                    "detlint-transient at %s:%d is attached to no "
                    "checkpoint-checked data member; remove it or "
                    "move it onto the field it exempts"
                    % (rel.replace(os.sep, "/"), t.line)))

    # ------------------------------------------------- R5 compile

    if r5_headers and not no_r5:
        src_dir = os.path.join(root, "src")
        for hdr in sorted(r5_headers):
            rel = os.path.relpath(hdr, root)
            skip = False
            for entry in allowlist:
                if entry[0] == "R5" and fnmatch.fnmatch(rel,
                                                        entry[1]):
                    entry[3] = True
                    skip = True
            if skip:
                continue
            closure = lexical.include_closure(root, hdr)
            chashes = []
            for dep in closure:
                draw, dhash, derr = store.get(dep)
                chashes.append(dhash if derr is None else "io")
            key = unit_key(RULESET_VERSION, "r5", rel, cxx,
                           *chashes)
            hit = cache.get(key)
            if hit is not None:
                findings.extend(Finding.from_dict(d, root)
                                for d in hit)
                continue
            hdr_findings = []

            def report_r5(rule, path, line, message):
                hdr_findings.append(Finding(rule, path, line,
                                            message))

            lexical.check_r5(root, [hdr], report_r5, cxx)
            cache.put(key, [f.to_dict(root) for f in hdr_findings])
            findings.extend(hdr_findings)

    if full_tree:
        rel_allow = os.path.relpath(allow_path, root)
        for rule, glob, lineno, used in allowlist:
            if not used:
                errors.append(Finding(
                    "stale-allowlist", allow_path, lineno,
                    "%s %s (entry at %s:%d) matches no finding in "
                    "the tree; remove the entry"
                    % (rule, glob, rel_allow.replace(os.sep, "/"),
                       lineno)))

    all_out = sorted(findings + errors, key=sort_key(root))
    return all_out


def run_self_test(root, cxx, stream):
    """Run the golden fixture suite in-process; returns 0/1."""
    fixture_root = os.path.join(root, "tests", "detlint_fixtures")
    if not os.path.isdir(fixture_root):
        print("detlint --self-test: no fixtures at %s"
              % fixture_root, file=sys.stderr)
        return 2
    failures = 0
    names = sorted(d for d in os.listdir(fixture_root)
                   if os.path.isdir(os.path.join(fixture_root, d)))
    for name in names:
        fdir = os.path.join(fixture_root, name)
        expected_path = os.path.join(fdir, "expected.txt")
        expected = ""
        if os.path.isfile(expected_path):
            with open(expected_path, encoding="utf-8") as f:
                expected = f.read()
        out = run_scan(
            root=fdir, paths=[],
            allow_path=os.path.join(fdir, "tools", "detlint",
                                    "allowlist.txt"),
            cxx=cxx, no_r5=False,
            cache=Cache(None, RULESET_VERSION, enabled=False))
        actual = render_text(out, fdir)
        got_exit = 1 if out else 0
        want_exit = 1 if expected.strip() else 0
        if name == "r5_bad":
            # No golden file: the diagnostic embeds compiler text,
            # so it is prefix-matched (as in tests/test_detlint.sh).
            prefix = ("src/bad.hh:1: detlint(R5): MITTS_ASSERT-"
                      "bearing header does not compile standalone:")
            want_exit = 1
            ok = got_exit == 1 and actual.startswith(prefix)
        else:
            ok = (got_exit == want_exit
                  and expected.splitlines() == actual.splitlines())
        if ok:
            print("self-test: %-16s ok" % name, file=stream)
        else:
            failures += 1
            print("self-test: %-16s FAIL (exit %d, want %d)"
                  % (name, got_exit, want_exit), file=stream)
            print("--- expected ---\n%s--- actual ---\n%s"
                  % (expected, actual), file=stream)
    print("self-test: %d/%d fixtures ok"
          % (len(names) - failures, len(names)), file=stream)
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="detlint", description=__doc__, epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repository root (default: nearest parent "
                         "of this script containing src/)")
    ap.add_argument("--allowlist", default=None,
                    help="file-level allowlist (default: "
                         "<root>/tools/detlint/allowlist.txt)")
    ap.add_argument("--cxx", default=os.environ.get("CXX", "g++"),
                    help="compiler for R5 standalone-header checks")
    ap.add_argument("--no-r5", action="store_true",
                    help="skip the (slower) R5 compile checks")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the incremental result cache")
    ap.add_argument("--cache-file", default=None,
                    help="cache location (default: "
                         "<root>/.detlint.cache.json)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write findings as JSON to PATH")
    ap.add_argument("--sarif", metavar="PATH", default=None,
                    help="also write findings as SARIF 2.1.0 to "
                         "PATH")
    ap.add_argument("--self-test", action="store_true",
                    help="run the golden fixture suite under "
                         "<root>/tests/detlint_fixtures and exit")
    ap.add_argument("paths", nargs="*",
                    help="files to scan (default: src bench tools "
                         "tests under --root)")
    args = ap.parse_args(argv)

    root = args.root
    if root is None:
        root = os.path.dirname(os.path.dirname(_HERE))
    root = os.path.abspath(root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("detlint: no src/ under root %s" % root,
              file=sys.stderr)
        return 2

    if args.self_test:
        return run_self_test(root, args.cxx, sys.stderr)

    cache_path = args.cache_file or os.path.join(
        root, ".detlint.cache.json")
    cache = Cache(cache_path, RULESET_VERSION,
                  enabled=not args.no_cache)

    allow_path = args.allowlist or os.path.join(
        root, "tools", "detlint", "allowlist.txt")
    all_out = run_scan(root, args.paths, allow_path, args.cxx,
                       args.no_r5, cache)
    cache.save()

    sys.stdout.write(render_text(all_out, root))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(render_json(all_out, root, RULESET_VERSION))
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as f:
            f.write(render_sarif(all_out, root, RULESET_VERSION,
                                 RULE_DOCS))
    if cache.enabled:
        print("detlint: cache %d hit(s), %d miss(es)"
              % (cache.hits, cache.misses), file=sys.stderr)
    if all_out:
        print("detlint: %d finding(s)" % len(all_out),
              file=sys.stderr)
        return 1
    return 0
