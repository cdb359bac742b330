#!/usr/bin/env python3
"""Seeded generative fuzzer for the supported C subset.

Generates random-but-deterministic C programs (fixed-seed
:class:`random.Random`, no wall-clock anywhere) inside the frontend's
supported subset — integer scalars and arrays, helper functions, ``for`` /
``while`` / ``if`` / ``switch`` / ternary, full operator mix with shift
amounts masked to ``& 31`` and divisors forced odd so no UB-shaped trap
depends on the generator's luck — then pushes each program through the
whole pipeline and differentially checks it:

1. the frontend must accept it without diagnostics (a rejection or crash is
   a finding: the generator stays inside the documented subset);
2. the unoptimised-module interpretation (reference) must equal the fully
   optimised pipeline's functional outputs;
3. the timing replay's output stream must equal the interpreter's under the
   software-only, hybrid and hardware-heavy configurations, with zero
   forced events (the :mod:`repro.ingest.difftest` invariants).

Usage::

    python tools/fuzz_csubset.py --count 50 --seed 0            # smoke batch
    python tools/fuzz_csubset.py --seed 7 --emit-corpus DIR     # minimized survivors

``--emit-corpus`` delta-minimizes each surviving program (line-granular,
re-checking the full differential pipeline after every removal) and writes
it to ``DIR/fuzz_<seed>_<index>.c`` — the workflow that grew
``tests/corpus/``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.config import CompilerConfig  # noqa: E402
from repro.core.compiler import TwillCompiler  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.frontend.diagnostics import parse_with_diagnostics  # noqa: E402
from repro.ingest.evaluate import compute_ingest_report  # noqa: E402

#: Interpreter step budget per fuzzed program — generous for bounded loops,
#: small enough that a runaway program fails fast.
MAX_STEPS = 200_000


# ---------------------------------------------------------------------------
# program generator
# ---------------------------------------------------------------------------


class _Gen:
    """One deterministic random C program (all state derives from the seed)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.globals: List[str] = []
        self.helpers: List[str] = []
        self.helper_sigs: List[Tuple[str, int]] = []  # (name, arity)
        self.array_names: List[str] = []
        self.array_sizes: dict = {}

    # -- expressions ---------------------------------------------------------

    def _int_expr(self, names: List[str], depth: int = 0) -> str:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.3:
            if names and rng.random() < 0.6:
                return rng.choice(names)
            return str(rng.randint(0, 1000))
        kind = rng.randrange(8)
        a = self._int_expr(names, depth + 1)
        b = self._int_expr(names, depth + 1)
        if kind == 0:
            op = rng.choice(["+", "-", "*", "^", "&", "|"])
            return f"({a} {op} {b})"
        if kind == 1:
            op = rng.choice(["<<", ">>"])
            return f"({a} {op} (({b}) & 15))"
        if kind == 2:
            op = rng.choice(["/", "%"])
            return f"({a} {op} ((({b}) & 255) | 1))"
        if kind == 3:
            op = rng.choice(["<", ">", "<=", ">=", "==", "!="])
            return f"({a} {op} {b})"
        if kind == 4:
            return f"(({a} != 0) ? {b} : {self._int_expr(names, depth + 1)})"
        if kind == 5 and self.array_names:
            arr = rng.choice(self.array_names)
            return f"{arr}[(({a}) & {self.array_sizes[arr] - 1})]"
        if kind == 6 and self.helper_sigs:
            name, arity = rng.choice(self.helper_sigs)
            args = ", ".join(self._int_expr(names, depth + 1) for _ in range(arity))
            return f"{name}({args})"
        return f"(~({a}) + ({b}))"

    # -- statements ------------------------------------------------------------

    def _statements(self, reads: List[str], writes: List[str], depth: int, count: int) -> List[str]:
        # `reads` includes enclosing loop counters; `writes` never does, so a
        # generated body can't reset its own loop variable into an infinite loop.
        rng = self.rng
        pad = "  " * depth
        out: List[str] = []
        for _ in range(count):
            kind = rng.randrange(10)
            if kind < 4 and writes:
                target = rng.choice(writes)
                op = rng.choice(["=", "+=", "^=", "="])
                out.append(f"{pad}{target} {op} {self._int_expr(reads)};")
            elif kind == 4 and self.array_names:
                arr = rng.choice(self.array_names)
                idx = f"(({self._int_expr(reads)}) & {self.array_sizes[arr] - 1})"
                out.append(f"{pad}{arr}[{idx}] = {self._int_expr(reads)};")
            elif kind == 5 and depth < 3:
                var = f"i{depth}_{rng.randrange(1000)}"
                bound = rng.randint(2, 8)
                out.append(f"{pad}for ({var} = 0; {var} < {bound}; {var}++) {{")
                out.extend(self._statements(reads + [var], writes, depth + 1, rng.randint(1, 2)))
                out.append(f"{pad}}}")
                self._loop_vars.append(var)
            elif kind == 6 and depth < 3:
                out.append(f"{pad}if ({self._int_expr(reads)} > {rng.randint(0, 100)}) {{")
                out.extend(self._statements(reads, writes, depth + 1, rng.randint(1, 2)))
                if rng.random() < 0.5:
                    out.append(f"{pad}}} else {{")
                    out.extend(self._statements(reads, writes, depth + 1, 1))
                out.append(f"{pad}}}")
            elif kind == 7 and reads and depth < 3:
                sel = self._int_expr(reads)
                out.append(f"{pad}switch (({sel}) & 3) {{")
                for case in range(rng.randint(2, 4)):
                    out.append(f"{pad}case {case}:")
                    out.extend(self._statements(reads, writes, depth + 1, 1))
                    out.append(f"{pad}  break;")
                out.append(f"{pad}default:")
                out.extend(self._statements(reads, writes, depth + 1, 1))
                out.append(f"{pad}  break;")
                out.append(f"{pad}}}")
            elif kind == 8 and reads:
                out.append(f"{pad}print_int({rng.choice(reads)});")
            else:
                target = rng.choice(writes) if writes else None
                if target is None:
                    continue
                out.append(f"{pad}{target} = {target} + 1;")
        return out

    # -- whole program ----------------------------------------------------------

    def generate(self) -> str:
        rng = self.rng
        self._loop_vars: List[str] = []
        lines: List[str] = ["/* generated by tools/fuzz_csubset.py */"]

        for index in range(rng.randint(0, 2)):
            size = rng.choice([4, 8, 16])
            name = f"tab{index}"
            values = ", ".join(str(rng.randint(0, 255)) for _ in range(size))
            lines.append(f"int {name}[{size}] = {{{values}}};")
            self.array_names.append(name)
            self.array_sizes[name] = size

        for index in range(rng.randint(0, 2)):
            arity = rng.randint(1, 3)
            name = f"helper{index}"
            params = ", ".join(f"int p{i}" for i in range(arity))
            body_names = [f"p{i}" for i in range(arity)]
            expr = self._int_expr(body_names)
            lines.append(f"int {name}({params}) {{")
            lines.append(f"  return {expr};")
            lines.append("}")
            self.helper_sigs.append((name, arity))

        nvars = rng.randint(2, 4)
        names = [f"v{i}" for i in range(nvars)]
        lines.append("int main(void) {")
        for name in names:
            lines.append(f"  int {name} = {rng.randint(0, 100)};")
        body = self._statements(names, names, 1, rng.randint(3, 6))
        for var in sorted(set(self._loop_vars)):
            lines.append(f"  int {var};")
        lines.extend(body)
        for name in names:
            lines.append(f"  print_int({name});")
        checksum = " ^ ".join(names)
        lines.append(f"  print_int({checksum});")
        lines.append(f"  return ({checksum}) & 255;")
        lines.append("}")
        return "\n".join(lines) + "\n"


def generate_program(seed: int) -> str:
    """The deterministic program for one seed."""
    return _Gen(random.Random(seed)).generate()


# ---------------------------------------------------------------------------
# differential pipeline check
# ---------------------------------------------------------------------------


def check_program(source: str, name: str = "fuzzed", min_outputs: int = 0) -> Optional[str]:
    """Run the full differential pipeline on *source*.

    Returns ``None`` when every check passes, otherwise a one-line failure
    description (the fuzzing finding).  ``min_outputs`` lets the minimizer
    insist the program still actually prints something.
    """
    unit, diagnostics = parse_with_diagnostics(source, f"{name}.c")
    if diagnostics or unit is None:
        return "frontend rejected: " + "; ".join(d.format() for d in diagnostics[:3])

    config = CompilerConfig()
    config.max_interpreter_steps = MAX_STEPS
    report = compute_ingest_report(name, source, f"{name}.c", config)
    if not report["ok"]:
        messages = "; ".join(d["message"] for d in report["diagnostics"][:3])
        return f"reference interpretation failed: {messages}"
    reference = [int(v) for v in report["outputs"]]
    if len(reference) < min_outputs:
        return f"program prints {len(reference)} value(s), need {min_outputs}"

    try:
        result = TwillCompiler(config).compile_and_simulate(source, name=name)
    except ReproError as exc:
        return f"pipeline crashed: {type(exc).__name__}: {exc}"

    if list(result.execution.outputs) != reference:
        return (
            "optimised pipeline outputs diverge from the unoptimised reference "
            f"({list(result.execution.outputs)[:4]} vs {reference[:4]})"
        )
    trace_events = len(result.execution.trace)
    for label, attr in (
        ("software_only", "pure_software"),
        ("hybrid", "twill"),
        ("hardware_heavy", "pure_hardware"),
    ):
        timing = getattr(result.system, attr).timing
        if list(timing.replay_outputs) != reference:
            return f"{label}: replayed output stream diverges from the interpreter"
        if timing.events != trace_events:
            return f"{label}: replay timed {timing.events} of {trace_events} events"
        if timing.forced_events != 0:
            return f"{label}: {timing.forced_events} forced event(s) in the replay"
    return None


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def _still_interesting(source: str) -> bool:
    """A minimization candidate must still pass the whole pipeline and print."""
    unit, diagnostics = parse_with_diagnostics(source)
    if diagnostics or unit is None:
        return False
    if "print_int" not in source:
        return False
    return check_program(source, name="minimized", min_outputs=4) is None


def minimize(source: str) -> str:
    """Line-granular greedy delta minimization of a *surviving* program.

    Repeatedly tries dropping line chunks (halving chunk sizes down to one
    line); a removal is kept only when the remainder still parses cleanly,
    runs, prints, and passes every differential check.  Deterministic: scan
    order is positional, no randomness.
    """
    lines = source.splitlines()
    chunk = max(1, len(lines) // 2)
    while chunk >= 1:
        changed = True
        while changed:
            changed = False
            index = 0
            while index < len(lines):
                candidate = lines[:index] + lines[index + chunk :]
                text = "\n".join(candidate) + "\n"
                if candidate and _still_interesting(text):
                    lines = candidate
                    changed = True
                else:
                    index += chunk
        chunk //= 2
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """Fuzz a batch of programs; optionally emit minimized survivors."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=50, help="programs to generate (default: 50)")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default: 0)")
    parser.add_argument(
        "--emit-corpus",
        metavar="DIR",
        help="minimize each surviving program and write it to DIR/fuzz_<seed>_<i>.c",
    )
    parser.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="with --emit-corpus: stop after N emitted survivors",
    )
    parser.add_argument("--quiet", action="store_true", help="only print the final summary")
    args = parser.parse_args(argv)

    failures: List[Tuple[int, str]] = []
    emitted = 0
    for index in range(args.count):
        seed = args.seed * 1_000_003 + index
        source = generate_program(seed)
        finding = check_program(source, name=f"fuzz_{seed}")
        if finding is not None:
            failures.append((seed, finding))
            print(f"[{index + 1}/{args.count}] seed {seed}: FAIL — {finding}")
            continue
        if not args.quiet:
            print(f"[{index + 1}/{args.count}] seed {seed}: ok ({len(source.splitlines())} lines)")
        if args.emit_corpus and (args.keep is None or emitted < args.keep):
            os.makedirs(args.emit_corpus, exist_ok=True)
            small = minimize(source)
            path = os.path.join(args.emit_corpus, f"fuzz_{args.seed}_{index}.c")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"/* fuzz survivor: base seed {args.seed}, index {index} */\n")
                handle.write(small)
            emitted += 1
            print(f"  -> minimized to {len(small.splitlines())} lines: {path}")

    print(
        f"fuzzed {args.count} programs (base seed {args.seed}): "
        f"{args.count - len(failures)} passed, {len(failures)} failed"
        + (f", {emitted} corpus files emitted" if args.emit_corpus else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
