"""Command-line interface.

Subcommands: ``spectrum`` (exact transform), ``sample`` (measurement
draws), ``gl`` (heavy-coefficient search), ``verify`` (Monte-Carlo check
of the accuracy guarantees).  Exit codes are a stable contract:

    0  success
    2  usage or parse error
    3  capacity exceeded (also out of memory)
    4  verification requested but infeasible
    5  statistical acceptance gate failed

Every result (a file, or the document a command prints to stdout) is
written as bytes through one opener, so for a fixed ``--seed`` it is
byte-identical across invocations and platforms (floats are printed with
repr, the shortest round-trip form).  The summary lines are printed as text.
The environment variable ``WALSHGL_MAX_N`` may lower (never raise) the
exact-transform capacity cap.  A ``walshgl`` job runs one thread: walshgl
calls no BLAS, and the package loads numpy's OpenBLAS without its workers.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from . import gl as glmod
from . import qsim, stats, walsh
from .boolfn import (
    MAX_N,
    BitVector,
    BooleanFunction,
    VectorialFunction,
    load_sbox,
    load_truth_table,
    parse_anf,
    read_integer,
    write_digits,
)
from .errors import CapacityError, ParseError


_SAMPLE_CHUNK = 1 << 16  # draws per write in ``sample``; bounds its extra memory


class InfeasibleVerification(RuntimeError):
    """Oracle verification was required but the exact transform is out of reach."""


def oracle_cap() -> int:
    raw = os.environ.get("WALSHGL_MAX_N")
    if raw is None:
        return MAX_N
    value = read_integer(raw)
    if value is None:
        raise ParseError(f"WALSHGL_MAX_N must be an integer, got {raw!r}")
    if value < 1:
        raise ParseError(f"WALSHGL_MAX_N must be positive, got {value}")
    return int(min(value, MAX_N))


def _add_input_flags(p: argparse.ArgumentParser, with_b: bool):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--anf", metavar="EXPR", help="inline ANF, e.g. 'x1+x2*x3'")
    group.add_argument("--tt", metavar="PATH", help=".tt truth-table file")
    group.add_argument("--sbox", metavar="PATH", help=".sbox lookup-table file")
    p.add_argument("--n", type=int, default=None, help="variable count override for --anf")
    if with_b:
        p.add_argument(
            "--b",
            metavar="MASK",
            default=None,
            help="output mask for --sbox input (binary string or 0x-hex)",
        )


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", required=True, help="threshold in (0, 1], e.g. 0.4")
    p.add_argument("--delta", required=True, help="failure budget in (0, 1)")


def _seed(text: str) -> int:
    """A --seed value; the streams key on 64 bits, so any other would alias one of them."""
    seed = read_integer(text)
    if seed is None or not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..2^64 - 1, got {text!r}")
    return int(seed)


def _add_sampling_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_seed, default=0, help="64-bit sampling seed")
    p.add_argument(
        "--mode",
        choices=qsim.MODES,
        default=qsim.SPECTRAL,
        help="sampling path (default: spectral)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshgl",
        description="Walsh spectra and heavy-coefficient search for Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact spectrum of a function or component")
    _add_input_flags(p, with_b=True)
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--top", type=int, default=8, help="how many top |S| values to echo")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sample", help="draw measurement outcomes")
    _add_input_flags(p, with_b=True)
    _add_sampling_flags(p)
    p.add_argument("--draws", type=int, default=1)
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument(
        "--dump-amplitudes",
        metavar="PATH",
        default=None,
        help="write the final state amplitudes (index,re,im); statevector mode only",
    )
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gl", help="heavy-coefficient search (single or multi output)")
    _add_input_flags(p, with_b=False)
    _add_param_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--strict-confidence", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gl)

    p = sub.add_parser("verify", help="Monte-Carlo check of the accuracy guarantees")
    _add_input_flags(p, with_b=False)
    _add_param_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def _load_input(args) -> BooleanFunction | VectorialFunction:
    if args.anf is not None:
        return parse_anf(args.anf, n=args.n)
    if args.n is not None:
        raise ParseError("--n applies only to --anf input")
    if args.tt is not None:
        return load_truth_table(args.tt)
    return load_sbox(args.sbox)


def _component(args, target) -> BitVector | None:
    """The ``--b`` component of an --sbox target; None for a Boolean one."""
    if not isinstance(target, VectorialFunction):
        if args.b is not None:
            raise ParseError("--b applies only to --sbox input")
        return None
    if args.b is None:
        raise ParseError("--sbox input needs --b to pick a component")
    return BitVector.parse(args.b, target.m)


def _check_oracle_capacity(n: int, error: type[Exception] = CapacityError):
    cap = oracle_cap()
    if n > cap:
        raise error(f"n={n} exceeds the exact-transform cap of {cap}")


def _check_out(*paths: str | None):
    """Refuse, before the work, a result path that ``open(path, "wb")``
    would refuse: a directory or a name ending in a separator, or a file in
    a directory that does not exist.  The error is the one open() raises;
    nothing is opened, created or truncated, and any other unusable path
    still fails when it is opened."""
    for path in filter(None, paths):
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:
            os.stat(os.path.dirname(path) or ".")
        except FileNotFoundError:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path) from None
        except OSError:  # any other fault of the directory is open()'s to report
            pass


def _binary_out(path: str | None):
    """The one opener of every result: ``path`` opened for bytes, or the
    byte stream under ``sys.stdout``, flushed first so that the bytes follow
    any text already printed.  A stdout without one, such as a ``StringIO``,
    gets the bytes as ASCII text."""
    if path is not None:
        return open(path, "wb")
    text = sys.stdout
    text.flush()
    if hasattr(text, "buffer"):
        return nullcontext(text.buffer)
    return nullcontext(SimpleNamespace(write=lambda data: text.write(bytes(data).decode("ascii"))))


def cmd_spectrum(args) -> int:
    if args.format == "bin" and args.out is None:
        raise ParseError("--format bin needs --out")
    target = _load_input(args)
    _check_oracle_capacity(target.n)
    b = _component(args, target)
    _check_out(args.out)
    (spectrum,) = walsh.spectra(target, [b])

    with _binary_out(args.out) as out:
        if args.format == "bin":
            walsh.write_spectrum_binary(spectrum, out)
        else:
            walsh.spectrum_to_csv(spectrum, out)

    summary = sys.stdout if args.out is not None else sys.stderr
    total = spectrum.parseval_sum()
    expected = 4**spectrum.n
    print(
        f"parseval: sum W^2 = {total} ({'ok' if total == expected else 'VIOLATED'},"
        f" expected {expected})",
        file=summary,
    )
    for a, w in zip(*(part.tolist() for part in walsh.top_coefficients(spectrum, args.top))):
        print(f"top |S|: {a:0{spectrum.n}b}  W={w}  S={w / (1 << spectrum.n)!r}", file=summary)
    return 0


def cmd_sample(args) -> int:
    target = _load_input(args)
    if args.draws < 1:
        raise ParseError(f"--draws must be positive, got {args.draws}")
    if args.mode == qsim.SPECTRAL:
        _check_oracle_capacity(target.n)
    if args.dump_amplitudes is not None and args.mode != qsim.STATEVECTOR:
        raise ParseError("--dump-amplitudes needs --mode statevector")

    b = _component(args, target)
    _check_out(args.dump_amplitudes, args.out)  # the order they are opened in
    if args.mode == qsim.STATEVECTOR:  # one simulation, for the sampler and the dump
        state = qsim.circuit_state(target, b)
        sampler = qsim.Sampler(qsim.measured_spectrum(state))
    else:
        sampler = qsim.Sampler(next(walsh.spectra(target, [b])))
    if args.dump_amplitudes is not None:  # at most 2^MAX_STATE_QUBITS rows: one write
        amps = state.amplitudes
        rows = zip(range(len(amps)), amps.real.tolist(), amps.imag.tolist())
        text = "".join(["index,re,im\n", *(f"{i},{re!r},{im!r}\n" for i, re, im in rows)])
        with _binary_out(args.dump_amplitudes) as out:
            out.write(text.encode())

    lines = np.empty((min(_SAMPLE_CHUNK, args.draws), target.n + 1), dtype=np.uint8)
    lines[:, target.n] = ord("\n")
    with _binary_out(args.out) as out:
        for start in range(0, args.draws, _SAMPLE_CHUNK):
            encoded = sampler.draw(args.seed, start, min(_SAMPLE_CHUNK, args.draws - start))
            chunk = lines[: len(encoded)]
            write_digits(chunk[:, : target.n], encoded, 2)
            out.write(chunk)
    return 0


def cmd_gl(args) -> int:
    target = _load_input(args)
    params = glmod.derive_params(args.eps, args.delta, strict_confidence=args.strict_confidence)
    if args.mode == qsim.SPECTRAL:
        _check_oracle_capacity(target.n)
    _check_out(args.out)
    result, verdict = glmod.search(target, params, args.seed, args.mode, target.n <= oracle_cap())

    doc = result.to_json_dict()
    if args.format == "csv":  # the JSON entries, one row each; str(float) is its repr
        rows = (f"{e['a']},{e.get('b', '')},{e['count']},{e.get('exact_S', '')}\n"
                for e in doc["entries"])
        text = "".join(["a,b,count,exact_S\n", *rows])
    else:
        text = json.dumps(doc, indent=2) + "\n"
    with _binary_out(args.out) as out:
        out.write(text.encode())

    _check_oracle_capacity(target.n, InfeasibleVerification)  # exit 4: the list, no summary
    echo = sys.stdout if args.out is not None else sys.stderr
    print(
        f"l={params.l} s={float(params.s)!r} ceil(s)={params.count_threshold}"
        f" queries={result.queries} entries={len(result.entries)}",
        file=echo,
    )
    print(
        f"oracle verdict: complete={verdict.complete} sound={verdict.sound}",
        file=echo,
    )
    return 0


def cmd_verify(args) -> int:
    target = _load_input(args)
    params = glmod.derive_params(args.eps, args.delta)
    _check_oracle_capacity(target.n, InfeasibleVerification)
    _check_out(args.out)
    report = stats.monte_carlo(target, params, args.runs, args.seed, mode=args.mode)

    with _binary_out(args.out) as out:
        out.write((json.dumps(report.to_json_dict(), indent=2) + "\n").encode())
    echo = sys.stdout if args.out is not None else sys.stderr
    print(
        f"runs={report.runs} completeness_failures={report.completeness_failures}"
        f" soundness_failures={report.soundness_failures}"
        f" gate={report.gate_threshold!r} passed={report.passed}",
        file=echo,
    )
    return 0 if report.passed else 5


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"walshgl: parse error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"walshgl: capacity: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"walshgl: capacity: out of memory: {exc}", file=sys.stderr)
        return 3
    except InfeasibleVerification as exc:
        print(f"walshgl: infeasible verification: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"walshgl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
