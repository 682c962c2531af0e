#!/usr/bin/env python3
"""Repo lint: fast, dependency-free checks of invariants the compiler can't see.

Rules (each suppressible per line with a trailing `// lint:allow(<rule>)`):

  raw-sync-primitive
      No raw std::mutex / std::shared_mutex / std::condition_variable /
      lock_guard / unique_lock / scoped_lock / shared_lock anywhere in src/
      outside src/util/thread_annotations.h.  Everything must go through the
      CAPABILITY-annotated Mutex/SharedMutex/CondVar wrappers so clang's
      -Wthread-safety sees every acquisition.

  crowd-plaintext-leak
      No printing or logging of plaintext crowd identifiers outside
      src/analysis/.  This is the paper's core invariant: the shuffler and
      everything upstream of the analyzer only ever see ciphertext; a stray
      debug printf of a crowd ID is a privacy hole, not a style problem.

  analyzer-boundary
      No Analyzer, DecryptBatch, analyzer_, RunReports or MergePartials
      token anywhere in src/service/.  The paper's trust split (§3.3-3.5):
      the shuffler tier thresholds crowds on cardinality before anything is
      decrypted, so the service reaches the analyzer only through the one
      merge entry point, Pipeline::MergeEpoch, which thresholds first and
      hands only the survivors to the analyzer.  The serial drain and the
      cluster merge both make that call; RunReportsPartial (the outer open)
      is the only other Pipeline stage the service runs.

  wnaf-public-only
      No BatchScalarMult / BatchScalarMultJac call anywhere in src/ outside
      src/crypto/p256.*.  Those are the variable-time wNAF batch: its recode
      branches on every scalar bit and indexes its table by the digits, so
      it is for public scalars only (tests, benches, esabench).  Every
      private-key batch in src/ goes through BatchScalarMultSecret, the
      constant-time ladder both report layers open on.

  fsync-before-rename
      In the durability tier (src/service/spool.cc, session_journal.cc), a
      Rename() that commits a rewrite must be preceded by a Sync() within the
      same window of code, and a seal-marker create must follow the segment
      Sync.  Rename-before-fsync turns the atomic-commit idiom into a
      crash-window; this catches the ordering regressing by accident.

  secret-branch / secret-index / secret-compare
      Constant-time taint discipline (src/crypto/ct.h): data that is
      Secret<>-typed — or follows the secret naming convention (secret_*,
      private_key, alpha_) — must never reach an if/while/for/switch
      condition, an array subscript, or an ==/!=/memcmp comparison outside
      the ct primitive implementation itself.  The Secret<T> wrapper deletes
      the loud footguns (operator==, bool conversion, operator[]) at compile
      time; these rules catch the quiet ones — branching or indexing on an
      Expose()d value.  Taint is per-line and heuristic by design: the
      dynamic poison harness (tools/ct_harness.cc) is the backstop that
      tracks real data flow.

  secret-expose
      .Expose()/.ExposeMutable() outside src/crypto/: core/service code must
      consume secrets through the crypto-tier APIs, or declassify via the
      greppable .Declassify().  Expose() is the crypto tier's internal
      "stay-tainted" accessor, not an escape hatch.

  ct-declassify-reason
      Every declassification point (.Declassify() call, ct::Unpoison*,
      ct::Declassify*) must carry a same-line `// ct:declassify(<reason>)`
      comment.  This keeps `grep -rn 'ct:declassify' src` a complete,
      self-justifying registry of where secrets leave the taint domain.

Usage: scripts/lint.py [repo_root]      (exit 0 clean, 1 with findings)
       scripts/lint.py --self-test      (negative tests: injected violations
                                         must flag; lint:allow must suppress)
"""

import os
import re
import sys
import tempfile

RAW_PRIMITIVE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b"
)

PRINT_CALL = re.compile(r"\b(printf|fprintf|snprintf|sprintf|puts|fputs)\s*\(|std::(cout|cerr|clog)\b")
CROWD_ID = re.compile(r"\bcrowd\w*", re.IGNORECASE)

ANALYZER_TOKEN = re.compile(r"\b(?:Analyzer|DecryptBatch|analyzer_|RunReports|MergePartials)\b")

WNAF_BATCH_CALL = re.compile(r"\bBatchScalarMult(?:Jac)?\s*\(")

RENAME_CALL = re.compile(r"->\s*Rename\s*\(")
SYNC_CALL = re.compile(r"\bSync\s*\(")
MARKER_CREATE = re.compile(r"Open\s*\(\s*marker")
FSYNC_WINDOW = 40  # lines of lookback for the ordering idiom

ALLOW = re.compile(r"lint:allow\(([a-z-]+)\)")

# --- secret-taint rules ------------------------------------------------------
# A Secret<T>/SecretBytes declaration taints the declared name for the rest
# of the file (line-level heuristic; per-file scope).
SECRET_DECL = re.compile(r"\b(?:Secret\s*<[^>]*>|SecretBytes)\s*&?\s*(\w+)\s*(.?)")
# Names that are tainted by convention even without a visible declaration
# (members declared in another file, parameters renamed across TUs).
# `secret_share*` is excluded: those names describe the secret-sharing
# subsystem (e.g. the public secret_share_threshold config knob), not data.
SECRET_NAME = re.compile(r"\b(?:secret_(?!share)\w+|private_key|alpha_)\b")
BRANCH_HEAD = re.compile(r"\b(?:if|while|for|switch)\s*\(")
MEMCMP_CALL = re.compile(r"\b(?:memcmp|strcmp|strncmp)\s*\(")
EQUALITY_OP = re.compile(r"[^=!<>]==[^=]|!=")
EXPOSE_CALL = re.compile(r"\.Expose(?:Mutable)?\s*\(")
DECLASSIFY_CALL = re.compile(r"\.Declassify\s*\(|\bct::Unpoison\w*\s*[(<]|\bct::Declassify\w*\s*\(")
DECLASSIFY_REASON = re.compile(r"ct:declassify\(")
# `name = <expr involving a tainted name>` taints `name` (one-step flow).
# Captures the base object of a member store (`out.c1 = ...` taints `out`).
ASSIGN = re.compile(r"(?<![.\w>])(\w+)(?:(?:\.|->)\w+)*\s*=(?![=<>])")

# The one file allowed to hold raw primitives: it is the wrapper.
PRIMITIVE_EXEMPT = {os.path.join("src", "util", "thread_annotations.h")}
# The analyzer is the trust boundary where plaintext crowds legitimately exist.
CROWD_EXEMPT_PREFIX = os.path.join("src", "analysis") + os.sep
# The service tier is the shuffler side of the trust split; it reaches the
# analyzer only through Pipeline::MergeEpoch, after the threshold.
SERVICE_PREFIX = os.path.join("src", "service") + os.sep
# The variable-time wNAF batch lives here; everywhere else in src/ it is banned.
WNAF_EXEMPT = {
    os.path.join("src", "crypto", "p256.h"),
    os.path.join("src", "crypto", "p256.cc"),
}
# Durability-tier files whose commit idioms are order-checked.
DURABILITY_FILES = {
    os.path.join("src", "service", "spool.cc"),
    os.path.join("src", "service", "session_journal.cc"),
    os.path.join("src", "service", "wal.cc"),
}
# The ct primitive implementation: masks, selects, and the declassification
# barrier itself live here, so the taint rules do not apply to it.
CT_IMPL_FILES = {
    os.path.join("src", "crypto", "ct.h"),
    os.path.join("src", "crypto", "ct.cc"),
}
# Expose() is legitimate inside the crypto tier (it is how ct-lane code reads
# a secret while keeping the taint); everyone else must go through Declassify.
CRYPTO_PREFIX = os.path.join("src", "crypto") + os.sep


def strip_comments_and_strings(line, in_block_comment):
    """Returns (code-only text, code-with-string-contents, still-in-block).
    Crude but fast and good enough: handles //, /* */, and double-quoted
    strings per line.  The second form keeps string literal contents — a
    plaintext leak often announces itself in the format string."""
    out = []
    out_with_strings = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), "".join(out_with_strings), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c == '"':
            start = i
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append('""')
            out_with_strings.append(line[start:i])
            continue
        out.append(c)
        out_with_strings.append(c)
        i += 1
    return "".join(out), "".join(out_with_strings), in_block_comment


def lint_file(root, rel, findings):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.readlines()
    except OSError as e:
        findings.append((rel, 0, "io", f"cannot read: {e}"))
        return

    in_block = False
    code_lines = []
    code_with_strings = []
    for raw in raw_lines:
        code, with_strings, in_block = strip_comments_and_strings(raw.rstrip("\n"), in_block)
        code_lines.append(code)
        code_with_strings.append(with_strings)

    def allowed(lineno, rule):
        return any(m == rule for m in ALLOW.findall(raw_lines[lineno - 1]))

    if rel not in PRIMITIVE_EXEMPT:
        for i, code in enumerate(code_lines, 1):
            m = RAW_PRIMITIVE.search(code)
            if m and not allowed(i, "raw-sync-primitive"):
                findings.append((rel, i, "raw-sync-primitive",
                                 f"raw {m.group(0)}; use the annotated wrappers in "
                                 "src/util/thread_annotations.h"))

    if not rel.startswith(CROWD_EXEMPT_PREFIX):
        for i, code in enumerate(code_with_strings, 1):
            if PRINT_CALL.search(code) and CROWD_ID.search(code):
                if not allowed(i, "crowd-plaintext-leak"):
                    findings.append((rel, i, "crowd-plaintext-leak",
                                     "printing a crowd identifier outside src/analysis/ — "
                                     "shufflers must only ever see ciphertext"))

    if rel.startswith(SERVICE_PREFIX):
        for i, code in enumerate(code_lines, 1):
            m = ANALYZER_TOKEN.search(code)
            if m and not allowed(i, "analyzer-boundary"):
                findings.append((rel, i, "analyzer-boundary",
                                 f"'{m.group(0)}' in the shuffler-side service tier — reach "
                                 "the analyzer only through Pipeline::MergeEpoch, after the "
                                 "threshold"))

    if rel not in WNAF_EXEMPT:
        for i, code in enumerate(code_lines, 1):
            m = WNAF_BATCH_CALL.search(code)
            if m and not allowed(i, "wnaf-public-only"):
                findings.append((rel, i, "wnaf-public-only",
                                 f"'{m.group(0)}' outside src/crypto/p256.* — the wNAF batch "
                                 "is variable-time in the scalar; private-key batches use "
                                 "BatchScalarMultSecret"))

    if rel not in CT_IMPL_FILES:
        # Collect per-file Secret<> declarations (skipping function
        # declarations, where the captured word is the function name).
        tainted = set()

        def taint_hit(code):
            m = SECRET_NAME.search(code)
            if m:
                return m.group(0)
            for t in tainted:
                if re.search(r"\b" + re.escape(t) + r"\b", code):
                    return t
            return None

        for i, code in enumerate(code_lines, 1):
            # Taint tracking is function-scoped: a closing brace at column 0
            # ends the scope, so same-named locals in the next function (a
            # public-lane `k` after a ct-lane `k`) don't inherit the taint.
            if raw_lines[i - 1].startswith("}"):
                tainted = set()
            for m in SECRET_DECL.finditer(code):
                if m.group(2) != "(":
                    tainted.add(m.group(1))
            # One-step flow: `lhs = ...tainted...` taints lhs — catches
            # branching/indexing on an Expose()d copy.  Declassify() is the
            # sanctioned exit from the taint domain, so it stops the flow;
            # the RHS is bounded at `;` so a for-header's condition doesn't
            # taint the induction variable.
            assign = ASSIGN.search(code)
            if assign and not DECLASSIFY_CALL.search(code):
                rhs = code[assign.end():].split(";", 1)[0]
                if taint_hit(rhs):
                    tainted.add(assign.group(1))
            name = taint_hit(code)
            if name is None:
                continue
            if BRANCH_HEAD.search(code) and not allowed(i, "secret-branch"):
                findings.append((rel, i, "secret-branch",
                                 f"control flow involving secret '{name}' — use the ct::CtSelect/"
                                 "mask primitives (src/crypto/ct.h), or Declassify() with a "
                                 "ct:declassify(reason)"))
            # Only a secret used AS an index leaks an address; a secret array
            # subscripted at a public index is fine.
            if re.search(r"\[[^\]]*\b" + re.escape(name) + r"\b[^\]]*\]", code) and \
               not allowed(i, "secret-index"):
                findings.append((rel, i, "secret-index",
                                 f"array subscript involving secret '{name}' — memory "
                                 "addresses leak through the cache; use a full-scan masked "
                                 "lookup (ct::CtTableLookup)"))
            if (MEMCMP_CALL.search(code) or EQUALITY_OP.search(code)) and \
               not allowed(i, "secret-compare"):
                findings.append((rel, i, "secret-compare",
                                 f"comparison involving secret '{name}' — early-exit compares "
                                 "leak the first differing position; use ct::CtEq/ct::EqMask"))

        if not rel.startswith(CRYPTO_PREFIX):
            for i, code in enumerate(code_lines, 1):
                if EXPOSE_CALL.search(code) and not allowed(i, "secret-expose"):
                    findings.append((rel, i, "secret-expose",
                                     "Expose() outside src/crypto/ — consume secrets through "
                                     "the crypto-tier APIs, or Declassify() with a "
                                     "ct:declassify(reason)"))

        for i, code in enumerate(code_lines, 1):
            if DECLASSIFY_CALL.search(code) and not DECLASSIFY_REASON.search(raw_lines[i - 1]) \
               and not allowed(i, "ct-declassify-reason"):
                findings.append((rel, i, "ct-declassify-reason",
                                 "declassification without a same-line "
                                 "'// ct:declassify(<reason>)' comment — every exit from the "
                                 "taint domain must be self-justifying"))

    if rel in DURABILITY_FILES:
        for i, code in enumerate(code_lines, 1):
            if RENAME_CALL.search(code) and not allowed(i, "fsync-before-rename"):
                window = code_lines[max(0, i - 1 - FSYNC_WINDOW):i - 1]
                if not any(SYNC_CALL.search(w) for w in window):
                    findings.append((rel, i, "fsync-before-rename",
                                     f"Rename with no Sync in the preceding {FSYNC_WINDOW} "
                                     "lines — the atomic-commit idiom requires fsync first"))
            if MARKER_CREATE.search(code) and not allowed(i, "fsync-before-rename"):
                window = code_lines[max(0, i - 1 - FSYNC_WINDOW):i - 1]
                if not any(SYNC_CALL.search(w) for w in window):
                    findings.append((rel, i, "fsync-before-rename",
                                     "seal-marker create with no segment Sync in the "
                                     f"preceding {FSYNC_WINDOW} lines — a marker must imply "
                                     "durable segments"))


def self_test():
    """Negative tests: every rule must flag an injected violation, and the
    same violation with a trailing lint:allow must be suppressed."""
    # (filename, contents, rules that MUST fire)
    cases = [
        ("src/crypto/bad_branch.cc",
         "void f(const Secret<U256>& k) {\n"
         "  U256 v = k.Expose();\n"
         "  if (v.limbs[0]) { g(); }\n"
         "}\n",
         ["secret-branch"]),
        ("src/crypto/bad_index.cc",
         "void f(const Secret<uint64_t>& idx) {\n"
         "  uint64_t i = idx.Expose();\n"
         "  sink(table[i]);\n"
         "}\n",
         ["secret-index"]),
        ("src/crypto/bad_compare.cc",
         "bool f(const SecretBytes& tag, const Bytes& other) {\n"
         "  return memcmp(tag.Expose().data(), other.data(), 16) == 0;\n"
         "}\n",
         ["secret-compare"]),
        ("src/crypto/bad_eq.cc",
         "bool f(const Secret<U256>& a, const U256& b) {\n"
         "  U256 x = a.Expose();\n"
         "  return x == b;\n"
         "}\n",
         ["secret-compare"]),
        ("src/crypto/bad_convention.cc",
         "bool g(const U256& private_key) {\n"
         "  if (private_key.IsZero()) return false;\n"
         "  return true;\n"
         "}\n",
         ["secret-branch"]),
        ("src/core/bad_expose.cc",
         "void f(const Secret<U256>& k) {\n"
         "  sink(k.Expose());\n"
         "}\n",
         ["secret-expose"]),
        ("src/crypto/bad_declassify.cc",
         "U256 f(const Secret<U256>& k) {\n"
         "  return k.Declassify();\n"
         "}\n",
         ["ct-declassify-reason"]),
        ("src/core/bad_raw_mutex.cc",
         "std::mutex mu;\n",
         ["raw-sync-primitive"]),
        ("src/service/cluster/bad_analyzer.cc",
         "Result<EpochPartial> Drain(Pipeline& pipeline, const std::vector<Bytes>& boxes) {\n"
         "  auto payloads = pipeline.analyzer_.DecryptBatch(boxes);\n"
         "}\n",
         ["analyzer-boundary"]),
        ("src/service/bad_serial_drain.cc",
         "Result<PipelineResult> Drain(RecordStream& stream, SecureRandom& rng, Rng& noise) {\n"
         "  return pipeline_.RunReports(stream, rng, noise);\n"
         "}\n",
         ["analyzer-boundary"]),
        ("src/service/cluster/bad_merge.cc",
         "Result<PipelineResult> Merge(std::vector<EpochPartial>& partials, Rng& noise) {\n"
         "  return pipeline_.MergePartials(partials, noise);\n"
         "}\n",
         ["analyzer-boundary"]),
        ("src/crypto/bad_wnaf.cc",
         "std::vector<EcPoint> Open(const P256& curve, const std::vector<EcPoint>& peers,\n"
         "                          const std::vector<U256>& keys) {\n"
         "  return curve.BatchNormalize(curve.BatchScalarMultJac(peers, keys));\n"
         "}\n",
         ["wnaf-public-only"]),
        ("src/core/bad_crowd_print.cc",
         "void f(const std::string& crowd_id) {\n"
         "  printf(\"crowd=%s\", crowd_id.c_str());\n"
         "}\n",
         ["crowd-plaintext-leak"]),
    ]
    failures = []
    with tempfile.TemporaryDirectory(prefix="ctlint-selftest-") as tmp:
        for relname, contents, expected_rules in cases:
            rel = relname.replace("/", os.sep)
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)), exist_ok=True)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(contents)
            findings = []
            lint_file(tmp, rel, findings)
            fired = {rule for _, _, rule, _ in findings}
            for want in expected_rules:
                if want not in fired:
                    failures.append(f"{relname}: expected [{want}] to fire, got {sorted(fired)}")

            # The identical violation, suppressed: append lint:allow for every
            # expected rule to each line and assert those rules go quiet.
            suppressed_lines = []
            for line in contents.rstrip("\n").split("\n"):
                tags = "  ".join(f"// lint:allow({r})" for r in expected_rules)
                suppressed_lines.append(f"{line}  {tags}")
            sup_rel = rel.replace("bad_", "ok_")
            with open(os.path.join(tmp, sup_rel), "w", encoding="utf-8") as f:
                f.write("\n".join(suppressed_lines) + "\n")
            findings = []
            lint_file(tmp, sup_rel, findings)
            fired = {rule for _, _, rule, _ in findings}
            for want in expected_rules:
                if want in fired:
                    failures.append(f"{relname}: lint:allow({want}) failed to suppress")

        # Clean ct-idiomatic code must NOT flag: masked select plus a
        # reasoned declassification.
        clean = (
            "U256 f(const Secret<U256>& k, const U256& a, const U256& b) {\n"
            "  uint64_t mask = ct::NonZeroMask(k.Expose().limbs[0]);\n"
            "  U256 r = ct::CtSelect(mask, a, b);\n"
            "  ct::UnpoisonObject(r);  // ct:declassify(selector output is public)\n"
            "  return r;\n"
            "}\n")
        rel = os.path.join("src", "crypto", "clean.cc")
        with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
            f.write(clean)
        findings = []
        lint_file(tmp, rel, findings)
        if findings:
            failures.append(f"clean.cc: false positives: {findings}")

        # The one merge entry point and the outer open are how the service
        # drains; neither may flag.
        rel = os.path.join("src", "service", "cluster", "merge.h")
        os.makedirs(os.path.join(tmp, os.path.dirname(rel)), exist_ok=True)
        with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
            f.write("auto partial = pipeline_.RunReportsPartial(stream);\n"
                    "return pipeline_.MergeEpoch(epoch, partials);\n")
        findings = []
        lint_file(tmp, rel, findings)
        if findings:
            failures.append(f"merge.h: false positives: {findings}")

        # The ct batch entry points, and the wNAF batch inside p256.* itself,
        # must not flag.
        for relname, text in [
                ("src/crypto/keys.cc",
                 "auto shared = curve.BatchScalarMultSecret(peers, private_key);\n"
                 "auto jacs = curve.BatchScalarMultSecretJac(c1s, private_key);\n"),
                ("src/crypto/p256.cc",
                 "return BatchNormalize(BatchScalarMultJac(points, scalars));\n")]:
            rel = relname.replace("/", os.sep)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(text)
            findings = []
            lint_file(tmp, rel, findings)
            if findings:
                failures.append(f"{relname}: false positives: {findings}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print(f"lint self-test: OK ({len(cases)} injected-violation cases, "
          "all flagged and all suppressible)")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return self_test()
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = []
    scanned = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            scanned += 1
            lint_file(root, rel, findings)

    if findings:
        for rel, line, rule, msg in sorted(findings):
            print(f"{rel}:{line}: [{rule}] {msg}")
        print(f"\nlint: {len(findings)} finding(s) in {scanned} files "
              "(suppress a deliberate exception with '// lint:allow(<rule>)')")
        return 1
    print(f"lint: OK ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
