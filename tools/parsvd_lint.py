#!/usr/bin/env python3
"""parsvd_lint: project-specific invariants no generic linter knows.

Rules
-----
  raw-tag        An integer literal passed in the tag position of a pmpi
                 messaging call. Every wire tag must come from the
                 src/pmpi/tags.hpp registry (named constant or band
                 helper) so protocols cannot collide by picking the same
                 ad-hoc number. Scope: src/, bench/, examples/.

  pipelined      A blocking communication call inside a region marked
                 `// parsvd-pipelined begin` ... `// parsvd-pipelined
                 end`. Those regions exist to overlap pre-posted
                 receives with local compute; a blocking call there
                 silently serializes the overlap again. Scope: src/.

  env-registry   A PARSVD_* environment variable read through
                 support/env (or std::getenv) that is missing from the
                 README.md registry table. Undocumented knobs rot.
                 Scope: src/, bench/, examples/ against README.md.

  raw-rng        A raw random source (std::mt19937, std::random_device,
                 std::*_distribution, rand()/srand()) outside
                 src/support/rng.{hpp,cpp}. Every random draw must go
                 through parsvd::Rng so sketches and test fixtures stay
                 bit-reproducible across platforms (libstdc++ and libc++
                 disagree on distribution algorithms) and so the
                 documented seed-split discipline holds. Scope: src/,
                 bench/, examples/.

  group-tag      Hand-rolled group tag-namespace arithmetic
                 (tags::group_scope / scoped_group / unscoped or the
                 kGroupScopedBase / kGroupSpan / kGroupTagBias constants)
                 outside src/pmpi and src/verify. Group communicators
                 scope every wire tag internally; callers composing
                 scoped tags by hand can collide with a sibling group's
                 band or double-scope a tag. The verify model is exempt
                 because it must mirror the wire encoding exactly.
                 Scope: src/, bench/, examples/.

  ft-wait        A naked wait (wait/wait_any/wait_scoped/recv_matrix/
                 recv_bytes) in a death-aware protocol that is not
                 death-bounded. The protocols are the collective engines
                 (the bodies of Communicator::gather_bytes, bcast_bytes
                 and reduce, defined in src/pmpi/comm.cpp) and the
                 distributed solvers (src/core/tsqr.cpp, apmos.cpp and
                 parallel_streaming.cpp, whole files). The peer may be
                 dead, so every wait on it must sit inside a try block
                 with a `catch (RankDeadError)` handler — the
                 watchdog-armed idiom the recovery paths use — or the
                 survivor hangs forever on a rank that will never post
                 (the orphaned-wait class schedule_check --faults proves
                 absent). A line whose raw text (or the line above it)
                 carries `parsvd-lint: allow-ft-wait` is exempt —
                 reserved for waits on rank 0 under the documented
                 root-must-survive contract (the non-root bcast receive,
                 the TSQR slice receive). Scope: src/.

  wall-clock     Wall-clock APIs (std::time, gmtime, localtime,
                 strftime, system_clock) in library or bench sources.
                 Bench JSON must be bit-reproducible run-to-run so CI
                 can diff it, and trace/measurement timestamps come
                 from the pluggable obs clock (steady in production,
                 fake in tests) so instrumented output is replayable.
                 A line whose raw text carries the marker
                 `parsvd-lint: allow-wall-clock` is exempt — reserved
                 for the single anchor read in src/obs/clock.cpp.
                 Scope: src/, bench/.

Usage
-----
  parsvd_lint.py [--repo ROOT]            lint the whole repository
  parsvd_lint.py [--repo ROOT] FILE...    lint specific files (all rules
                                          apply to every listed file;
                                          used by the fixture tests)

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# ------------------------------------------------------------ rule: raw-tag

# Messaging calls that take a wire tag, with the 0-based index of the
# tag argument. Context methods post(src, dest, tag, payload) and
# wait(dest, src, tag) both carry the tag third; zero- or two-argument
# wait() overloads (condition variables, requests) never reach index 2.
TAG_ARG_INDEX = {
    "send_matrix": 2,
    "isend_matrix": 2,
    "recv_matrix": 1,
    "irecv": 1,
    "send_bytes": 2,
    "recv_bytes": 1,
    "post": 2,
    "wait": 2,
}

INT_LITERAL = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
CALL_NAME = re.compile(r"\b(" + "|".join(TAG_ARG_INDEX) + r")\s*\(")


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving
    line structure so finding line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_args(text: str, open_paren: int):
    """Top-level comma split of the argument list opening at
    `open_paren`; returns (args, end_index) or None if unbalanced."""
    depth = 0
    args, start = [], open_paren + 1
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                return args, i
        elif ch == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return None


def rule_raw_tag(path: pathlib.Path, text: str, findings: list) -> None:
    if path.name == "tags.hpp":
        return  # the registry itself
    clean = strip_comments(text)
    for m in CALL_NAME.finditer(clean):
        name = m.group(1)
        parsed = split_args(clean, clean.index("(", m.end() - 1))
        if parsed is None:
            continue
        args, _ = parsed
        idx = TAG_ARG_INDEX[name]
        if idx >= len(args):
            continue
        tag = args[idx].strip()
        if INT_LITERAL.match(tag):
            line = clean.count("\n", 0, m.start()) + 1
            findings.append(
                (path, line, "raw-tag",
                 f"integer literal '{tag}' in the tag position of {name}(); "
                 "use a constant from src/pmpi/tags.hpp"))


# ---------------------------------------------------------- rule: pipelined

BLOCKING_CALLS = re.compile(
    r"\b(recv_matrix|recv_bytes|gather_matrices|gatherv|gather_bytes|"
    r"scatter_rows|reduce|allreduce|allreduce_scalar|bcast|bcast_bytes|"
    r"bcast_matrix|bcast_double|bcast_index|barrier|wait|wait_all|"
    r"wait_any|allgather_double|allgather_index)\s*\(")

PIPELINE_BEGIN = re.compile(r"parsvd-pipelined\s+begin")
PIPELINE_END = re.compile(r"parsvd-pipelined\s+end")


def rule_pipelined(path: pathlib.Path, text: str, findings: list) -> None:
    clean_lines = strip_comments(text).splitlines()
    inside = False
    for lineno, (raw, clean) in enumerate(
            zip(text.splitlines(), clean_lines), start=1):
        if PIPELINE_BEGIN.search(raw):
            inside = True
            continue
        if PIPELINE_END.search(raw):
            inside = False
            continue
        if not inside:
            continue
        m = BLOCKING_CALLS.search(clean)
        if m:
            findings.append(
                (path, lineno, "pipelined",
                 f"blocking call {m.group(1)}() inside a parsvd-pipelined "
                 "region; only posts (irecv/isend) and local compute may "
                 "appear between begin/end"))


# ------------------------------------------------------- rule: env-registry

ENV_READ = re.compile(
    r'(?:env::get_\w+|std::getenv|\bgetenv)\s*\(\s*"(PARSVD_[A-Z0-9_]+)"')
ENV_TOKEN = re.compile(r"PARSVD_[A-Z0-9_]+")


def rule_env_registry(paths, readme: pathlib.Path, findings: list) -> None:
    documented = set(ENV_TOKEN.findall(
        readme.read_text(encoding="utf-8"))) if readme.exists() else set()
    for path in paths:
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in ENV_READ.finditer(text):
            var = m.group(1)
            if var in documented:
                continue
            line = text.count("\n", 0, m.start()) + 1
            findings.append(
                (path, line, "env-registry",
                 f"{var} is read here but missing from the README.md "
                 "environment-variable registry"))


# ------------------------------------------------------------ rule: raw-rng

RAW_RNG = re.compile(
    r"\b(std::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+|knuth_b|"
    r"default_random_engine|random_device|\w+_distribution)\b|"
    r"(?:std::)?s?rand\s*\()")

# The one sanctioned wrapper: parsvd::Rng in src/support/rng.{hpp,cpp}
# owns the generator; everything else derives streams via Rng::split.
RAW_RNG_EXEMPT_NAMES = {"rng.hpp", "rng.cpp"}


def rule_raw_rng(path: pathlib.Path, text: str, findings: list) -> None:
    if path.name in RAW_RNG_EXEMPT_NAMES and path.parent.name == "support":
        return
    clean = strip_comments(text)
    for m in RAW_RNG.finditer(clean):
        line = clean.count("\n", 0, m.start()) + 1
        findings.append(
            (path, line, "raw-rng",
             f"raw random source '{m.group(1).strip()}'; draw through "
             "parsvd::Rng (src/support/rng.hpp) so streams stay "
             "reproducible and follow the seed-split discipline"))


# ---------------------------------------------------------- rule: group-tag

GROUP_TAG_ARITH = re.compile(
    r"\b(group_scope\s*\(|scoped_group\s*\(|unscoped\s*\(|"
    r"kGroupScopedBase\b|kGroupSpan\b|kGroupTagBias\b)")

# The wire layer itself (src/pmpi) and the static model that must mirror
# its tag encoding (src/verify) are the only sanctioned users.
GROUP_TAG_EXEMPT_DIRS = {"pmpi", "verify"}


def group_tag_exempt(path: pathlib.Path, root) -> bool:
    if root is None:
        return False
    try:
        parts = path.resolve().relative_to(root).parts
    except ValueError:
        return False
    return len(parts) >= 2 and parts[0] == "src" and \
        parts[1] in GROUP_TAG_EXEMPT_DIRS


def rule_group_tag(path: pathlib.Path, text: str, findings: list,
                   root=None) -> None:
    if group_tag_exempt(path, root):
        return
    clean = strip_comments(text)
    for m in GROUP_TAG_ARITH.finditer(clean):
        line = clean.count("\n", 0, m.start()) + 1
        token = m.group(1).strip().rstrip("(").strip()
        findings.append(
            (path, line, "group-tag",
             f"group tag-namespace arithmetic '{token}' outside src/pmpi "
             "and src/verify; group communicators scope wire tags "
             "internally — pass the group-local tag and let the "
             "Communicator translation layer relocate it"))


# ------------------------------------------------------------ rule: ft-wait

# The death-aware collective engines (defined in src/pmpi/comm.cpp) and
# the solver files whose every wait is checked.
FT_ENGINE_DEF = re.compile(
    r"\bCommunicator::(gather_bytes|bcast_bytes|reduce)\s*\(")
FT_SOLVER_FILES = {"src/core/tsqr.cpp", "src/core/apmos.cpp",
                   "src/core/parallel_streaming.cpp"}
FT_WAIT_CALL = re.compile(
    r"\b(wait_scoped|wait_any|wait|recv_matrix|recv_bytes)\s*\(")
FT_CATCH = re.compile(r"\s*catch\s*\(([^)]*)\)")
FT_WAIT_EXEMPT = "parsvd-lint: allow-ft-wait"


def match_brace(text: str, open_idx: int) -> int:
    """Index of the `}` matching the `{` at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def ft_engine_bodies(clean: str):
    """(start, end) spans of the bodies of collective-engine DEFINITIONS
    (a parameter list followed by `{`; calls/declarations end in `;`)."""
    for m in FT_ENGINE_DEF.finditer(clean):
        parsed = split_args(clean, clean.index("(", m.end() - 1))
        if parsed is None:
            continue
        _, close = parsed
        j = close + 1
        while j < len(clean) and clean[j].isspace():
            j += 1
        if j >= len(clean) or clean[j] != "{":
            continue
        end = match_brace(clean, j)
        if end > 0:
            yield j, end


def death_bounded_spans(clean: str, start: int, end: int):
    """Spans inside [start, end) protected by a try whose catch chain
    handles RankDeadError — the sanctioned death-bounded wait idiom."""
    body = clean[start:end]
    for m in re.finditer(r"\btry\b", body):
        ob = body.find("{", m.end())
        if ob < 0:
            continue
        cb = match_brace(body, ob)
        if cb < 0:
            continue
        handled = False
        j = cb + 1
        while True:
            mc = FT_CATCH.match(body, j)
            if not mc:
                break
            if "RankDeadError" in mc.group(1):
                handled = True
            cob = body.find("{", mc.end())
            if cob < 0:
                break
            ccb = match_brace(body, cob)
            if ccb < 0:
                break
            j = ccb + 1
        if handled:
            yield start + ob, start + cb


def rule_ft_wait(path: pathlib.Path, text: str, findings: list,
                 root: pathlib.Path | None = None) -> None:
    clean = strip_comments(text)
    raw_lines = text.splitlines()
    spans = list(ft_engine_bodies(clean))
    if root is not None:
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = ""
        if rel in FT_SOLVER_FILES:
            spans = [(0, len(clean))]
    for start, end in spans:
        bounded = list(death_bounded_spans(clean, start, end))
        for m in FT_WAIT_CALL.finditer(clean, start, end):
            if any(lo <= m.start() <= hi for lo, hi in bounded):
                continue
            lineno = clean.count("\n", 0, m.start()) + 1
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            prev = raw_lines[lineno - 2] if lineno >= 2 else ""
            if FT_WAIT_EXEMPT in raw or FT_WAIT_EXEMPT in prev:
                continue
            findings.append(
                (path, lineno, "ft-wait",
                 f"naked {m.group(1)}() in a death-aware protocol; "
                 "the peer may be dead — wrap the wait in try/catch "
                 "(RankDeadError) so it dead-resolves, or mark the "
                 "root-must-survive contract with "
                 "'parsvd-lint: allow-ft-wait'"))


# --------------------------------------------------------- rule: wall-clock

WALL_CLOCK = re.compile(
    r"\b(std::time\s*\(|std::gmtime|std::localtime|std::strftime|"
    r"\bgmtime\s*\(|\blocaltime\s*\(|\bstrftime\s*\(|system_clock)")

# Checked against the RAW line (markers live in comments, which
# strip_comments blanks out before the regex runs). The marker exempts
# its own line and the one immediately after it, so wrapped expressions
# can carry the marker on a comment line of their own.
WALL_CLOCK_EXEMPT = "parsvd-lint: allow-wall-clock"


def rule_wall_clock(path: pathlib.Path, text: str, findings: list) -> None:
    raw_lines = text.splitlines()
    for lineno, line in enumerate(strip_comments(text).splitlines(), start=1):
        m = WALL_CLOCK.search(line)
        if not m:
            continue
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        prev = raw_lines[lineno - 2] if lineno >= 2 else ""
        if WALL_CLOCK_EXEMPT in raw or WALL_CLOCK_EXEMPT in prev:
            continue
        findings.append(
            (path, lineno, "wall-clock",
             f"wall-clock API '{m.group(1).strip()}'; bench JSON and trace "
             "output must be reproducible run-to-run (time through the "
             "pluggable obs clock or support/timer's steady stopwatch)"))


# ------------------------------------------------------------------ driver

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}


def collect(root: pathlib.Path, subdir: str):
    base = root / subdir
    if not base.is_dir():
        return []
    return sorted(p for p in base.rglob("*")
                  if p.suffix in SOURCE_SUFFIXES and p.is_file())


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="lint only these files, all rules")
    args = parser.parse_args(argv)
    root = args.repo.resolve()
    readme = root / "README.md"

    findings: list = []
    if args.files:
        # Explicit file mode (fixtures): every rule applies to each file.
        for path in args.files:
            if not path.is_file():
                print(f"parsvd_lint: no such file: {path}", file=sys.stderr)
                return 2
            text = path.read_text(encoding="utf-8", errors="replace")
            rule_raw_tag(path, text, findings)
            rule_pipelined(path, text, findings)
            rule_raw_rng(path, text, findings)
            rule_group_tag(path, text, findings)
            rule_ft_wait(path, text, findings)
            rule_wall_clock(path, text, findings)
        rule_env_registry(args.files, readme, findings)
    else:
        src = collect(root, "src")
        bench = collect(root, "bench")
        examples = collect(root, "examples")
        for path in src + bench + examples:
            text = path.read_text(encoding="utf-8", errors="replace")
            rule_raw_tag(path, text, findings)
            rule_raw_rng(path, text, findings)
            rule_group_tag(path, text, findings, root)
        for path in src:
            text = path.read_text(encoding="utf-8", errors="replace")
            rule_pipelined(path, text, findings)
            rule_ft_wait(path, text, findings, root)
        for path in src + bench:
            rule_wall_clock(
                path, path.read_text(encoding="utf-8", errors="replace"),
                findings)
        rule_env_registry(src + bench + examples, readme, findings)

    for path, line, rule, message in findings:
        print(f"{path}:{line}: [{rule}] {message}")
    if findings:
        print(f"parsvd_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("parsvd_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
