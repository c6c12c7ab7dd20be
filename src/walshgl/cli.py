"""Command-line interface.

Subcommands: ``spectrum`` (exact transform), ``sample`` (measurement
draws), ``gl`` (heavy-coefficient search), ``verify`` (Monte-Carlo check
of the accuracy guarantees).  Exit codes are a stable contract:

    0  success
    2  usage or parse error
    3  capacity exceeded (also out of memory)
    4  verification requested but infeasible
    5  statistical acceptance gate failed

Outputs for a fixed ``--seed`` are byte-identical across invocations and
platforms (floats are printed with repr, the shortest round-trip form).
The environment variable ``WALSHGL_MAX_N`` may lower (never raise) the
exact-transform capacity cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import gl as glmod
from . import qsim, stats, walsh
from .boolfn import (
    MAX_N,
    BitVector,
    BooleanFunction,
    VectorialFunction,
    bitstring_tables,
    load_sbox,
    load_truth_table,
    parse_anf,
)
from .errors import CapacityError, ParseError


_SAMPLE_CHUNK = 1 << 16  # draws or amplitudes per write in ``sample``; bounds its extra memory


class InfeasibleVerification(RuntimeError):
    """Oracle verification was required but the exact transform is out of reach."""


def oracle_cap() -> int:
    raw = os.environ.get("WALSHGL_MAX_N")
    if raw is None:
        return MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"WALSHGL_MAX_N must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParseError(f"WALSHGL_MAX_N must be positive, got {value}")
    return min(value, MAX_N)


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
    p.add_argument("--delta", required=True, type=float, help="failure budget in (0, 1)")


def _seed(text: str) -> int:
    """A --seed value; the streams key on 64 bits, so any other would alias one of them."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..2^64 - 1, got {text!r}")
    return seed


def _add_sampling_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_seed, default=0, help="64-bit sampling seed")
    p.add_argument(
        "--mode",
        choices=(qsim.SPECTRAL, qsim.STATEVECTOR),
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


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w")


def _dump_json(doc: dict, out):
    json.dump(doc, out, indent=2)
    out.write("\n")


def cmd_spectrum(args) -> int:
    if args.format == "bin" and args.out is None:
        raise ParseError("--format bin needs --out")
    target = _load_input(args)
    _check_oracle_capacity(target.n)
    (spectrum,) = walsh.spectra(target, [_component(args, target)])

    if args.format == "bin":
        walsh.write_spectrum_binary(spectrum, args.out)
    else:
        with _out_stream(args.out) as out:
            walsh.spectrum_to_csv(spectrum, out)

    summary = sys.stdout if args.out is not None else sys.stderr
    total = spectrum.parseval_sum()
    expected = 4**spectrum.n
    print(
        f"parseval: sum W^2 = {total} ({'ok' if total == expected else 'VIOLATED'},"
        f" expected {expected})",
        file=summary,
    )
    for a, w in walsh.top_coefficients(spectrum, args.top):
        print(f"top |S|: {a}  W={w}  S={w / (1 << spectrum.n)!r}", file=summary)
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
    stream = qsim.circuit_sampler(target, b, args.mode, None).stream(args.seed, 0)
    state = qsim.circuit_state(target, b) if args.dump_amplitudes else None

    if state is not None:
        with open(args.dump_amplitudes, "w") as fh:
            fh.write("index,re,im\n")
            for start in range(0, state.amplitudes.shape[0], _SAMPLE_CHUNK):
                amps = state.amplitudes[start : start + _SAMPLE_CHUNK]
                rows = zip(range(start, start + len(amps)), amps.real.tolist(), amps.imag.tolist())
                fh.write("".join(f"{i},{re!r},{im!r}\n" for i, re, im in rows))

    low, high, lows = bitstring_tables(stream.n, suffix=b"\n")
    lines = np.empty((min(_SAMPLE_CHUNK, args.draws), stream.n + 1), dtype=np.uint8)
    with _out_stream(args.out) as out:
        for start in range(0, args.draws, _SAMPLE_CHUNK):
            encoded = stream.draw_encoded(min(_SAMPLE_CHUNK, args.draws - start))
            chunk = lines[: len(encoded)]
            chunk[:, : high.shape[1]] = np.take(high, encoded >> low, axis=0)
            chunk[:, high.shape[1] :] = np.take(lows, encoded & ((1 << low) - 1), axis=0)
            out.write(chunk.tobytes().decode("ascii"))
    return 0


def cmd_gl(args) -> int:
    target = _load_input(args)
    params = glmod.derive_params(args.eps, args.delta, strict_confidence=args.strict_confidence)
    if args.mode == qsim.SPECTRAL:
        _check_oracle_capacity(target.n)
    result, verdict = glmod.search(target, params, args.seed, args.mode, target.n <= oracle_cap())

    with _out_stream(args.out) as out:
        if args.format == "csv":
            out.write("a,b,count,exact_S\n")
            for e in result.entries:
                b = "" if e.b is None else str(e.b)
                s = "" if e.exact_s is None else repr(e.exact_s)
                out.write(f"{e.a},{b},{e.count},{s}\n")
        else:
            _dump_json(result.to_json_dict(), out)

    echo = sys.stdout if args.out is not None else sys.stderr
    print(
        f"l={params.l} s={float(params.s)!r} ceil(s)={params.count_threshold}"
        f" queries={result.queries} entries={len(result.entries)}",
        file=echo,
    )
    if verdict is None:
        print("oracle verification infeasible at the current capacity cap", file=echo)
        _check_oracle_capacity(target.n, InfeasibleVerification)
    print(
        f"oracle verdict: complete={verdict.complete} sound={verdict.sound}",
        file=echo,
    )
    return 0


def cmd_verify(args) -> int:
    target = _load_input(args)
    params = glmod.derive_params(args.eps, args.delta)
    _check_oracle_capacity(target.n, InfeasibleVerification)
    report = stats.monte_carlo(target, args.eps, args.delta, args.runs, args.seed,
                               mode=args.mode, params=params)

    with _out_stream(args.out) as out:
        _dump_json(report.to_json_dict(), out)
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
