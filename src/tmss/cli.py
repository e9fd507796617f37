"""Command-line interface.

Subcommands mirror the library layout: ``word`` for substitution words,
``group`` for the wreath recursion, ``algebra`` for matrix decomposition
arithmetic, ``char`` for exact character evaluation, ``julia`` for the
renderer, and ``verify`` for the replayable verification suite.

Exit codes: 0 for a definite answer, 1 for failures and bad input (usage
errors included), 2 for inconclusive verdicts such as a cap being reached.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from .verdict import Verdict
from .words import gamma, parse_word, render_word, theta_iter, tm_prefix


def _ring_from_flag(text: str):
    from . import algebra as alg

    if text == "Q":
        return alg.RATIONALS
    if text == "Z":
        return alg.INTEGERS
    if text.startswith("Fp:"):
        try:
            return alg.PrimeField(int(text[3:]))
        except ValueError as exc:  # not an integer, or not prime
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown ring {text!r}; use Q, Z or Fp:<p>")


def _int_from_flag(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{what} must be an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(
            f"{what} must be at least {least}, got {value}")
    return value


_q_from_flag = partial(_int_from_flag, least=2, what="an alphabet size")
_cap_from_flag = partial(_int_from_flag, least=1, what="a cap")
_depth_from_flag = partial(_int_from_flag, least=0, what="a depth")


def _viewport_from_flag(text: str) -> tuple[complex, float]:
    """``cx,cy,width``, three finite numbers with width > 0, as the
    viewport's center and width."""
    try:
        cx, cy, width = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"a viewport must be three numbers cx,cy,width, got {text!r}") from None
    if not all(map(math.isfinite, (cx, cy, width))):
        raise argparse.ArgumentTypeError(
            f"a viewport must be finite, got {text!r}")
    if width <= 0:
        raise argparse.ArgumentTypeError(
            f"a viewport width must be positive, got {text!r}")
    return complex(cx, cy), width


def _pixels_from_flag(text: str) -> tuple[int, int]:
    """``px,py``, two positive integers."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"pixels must be two integers px,py, got {text!r}")
    px, py = (_int_from_flag(x, least=1, what="a pixel count") for x in parts)
    return px, py


# each --preset, by the WreathRecursion constructor it names
_PRESETS = {
    "tm": "thue_morse",
    "inverted": "inverted_variant",
    "transposed": "transposed_variant",
}


def _make_rec(args):
    from .group import WreathRecursion

    return getattr(WreathRecursion, _PRESETS[args.preset])(args.q)


def _parse_elem(args, text: str):
    from .algebra import parse_element

    return parse_element(text, args.ring, args.q, args.mode)


def _kernel_from_flag(text: str):
    """``id``, ``ones`` or a JSON matrix of rationals, as a function from
    the alphabet size to the kernel; the library checks the size."""
    from .characters import Kernel

    if text in ("id", "identity"):
        return Kernel.identity
    if text == "ones":
        return Kernel.ones
    try:
        entries = json.loads(text)
    except (ValueError, RecursionError):
        raise argparse.ArgumentTypeError(
            f"a kernel must be id, ones or a JSON matrix, got {text!r}") from None
    try:
        kernel = Kernel(entries)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lambda q: kernel


@contextmanager
def _any_digits():
    """Lift Python's limit on the digits of an int written as text, while
    an exact answer is printed; input is still parsed under the limit.
    Pythons without the limit (before 3.10.7) have nothing to lift."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@_any_digits()
def _emit(args, payload, text) -> None:
    """Print ``payload`` as JSON with --json, else ``text``, which may be
    any object, such as an exact count; integers of any size are written
    out in full."""
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _verdict_exit(answer) -> int:
    return 2 if isinstance(answer, Verdict) and answer.is_unknown else 0


def _emit_verdict(args, verdict: Verdict) -> int:
    _emit(args, {"verdict": str(verdict)}, str(verdict))
    return _verdict_exit(verdict)


# -- word commands -------------------------------------------------------------


def _cmd_word(args) -> int:
    if args.action == "prefix":
        prefix = tm_prefix(args.q, args.n)
        text = ("".join(str(i) for i in prefix) if args.q <= 10
                else " ".join(str(i) for i in prefix))
        _emit(args, {"prefix": list(prefix)}, text)
    elif args.action == "subst":
        word = theta_iter(parse_word(args.word, args.q), args.q, args.iters)
        _emit(args, {"word": render_word(word)}, render_word(word))
    elif args.action == "gamma":
        word = gamma(parse_word(args.word, args.q), args.shift, args.q)
        _emit(args, {"word": render_word(word)}, render_word(word))
    return 0


# -- group commands -------------------------------------------------------------


def _parse_vertex(text: str) -> tuple[int, ...]:
    """The digits of ``text``; the recursion checks them against q."""
    return () if text in ("", "e") else tuple(int(c) for c in text)


def _cmd_group(args) -> int:
    rec = _make_rec(args)
    if args.action == "decompose":
        elem = rec.decompose(parse_word(args.word, args.q))
        data = elem.to_json()
        text = (f"perm={list(elem.perm.images)} sections="
                + "[" + ", ".join(data["sections"]) + "]")
        _emit(args, data, text)
    elif args.action == "act":
        vertex = rec.act(parse_word(args.word, args.q),
                         _parse_vertex(args.vertex))
        text = "".join(str(a) for a in vertex) or "e"
        _emit(args, {"vertex": list(vertex)}, text)
    elif args.action == "section":
        word = rec.section(parse_word(args.word, args.q),
                           _parse_vertex(args.vertex))
        _emit(args, {"word": render_word(word)}, render_word(word))
    elif args.action == "trivial":
        return _emit_verdict(args, rec.is_trivial(parse_word(args.word, args.q),
                                                  cap_states=args.cap_states))
    elif args.action == "equal":
        return _emit_verdict(args, rec.equal(parse_word(args.left, args.q),
                                             parse_word(args.right, args.q),
                                             cap_states=args.cap_states))
    elif args.action == "order":
        result = rec.order_of(parse_word(args.word, args.q),
                              cap_states=args.cap_states)
        _emit(args, {"order": str(result)}, str(result))
        return _verdict_exit(result)
    elif args.action == "nucleus":
        result = rec.nucleus(cap_states=args.cap_states)
        reps = [render_word(w) for w in result.representatives]
        _emit(args, {"classes": reps, "closed": result.closed},
              ", ".join(reps) + ("" if result.closed else "  (cap reached)"))
        return 0 if result.closed else 2
    elif args.action == "bounded":
        profile = rec.boundedness_profile(parse_word(args.word, args.q), args.depth,
                                          cap_states=args.cap_states)
        _emit(args, {"profile": profile}, " ".join(str(c) for c in profile))
    elif args.action == "portrait":
        data = rec.portrait(parse_word(args.word, args.q), args.depth)
        _emit(args, data, json.dumps(data))
    elif args.action == "moved":
        vertex = rec.moved_vertex(parse_word(args.word, args.q),
                                  cap_states=args.cap_states)
        if vertex is None:
            _emit(args, {"vertex": None}, "none")
        else:
            _emit(args, {"vertex": list(vertex)},
                  "".join(str(a) for a in vertex))
    return 0


# -- algebra commands -------------------------------------------------------------


def _cmd_algebra(args) -> int:
    from . import algebra as alg

    if args.action == "phi":
        matrix = _parse_elem(args, args.elem).phi()
        data = alg.mat_to_json(matrix)
        _emit(args, {"matrix": data},
              "\n".join("[" + ", ".join(row) + "]" for row in data))
    elif args.action == "zero":
        return _emit_verdict(args, alg.is_zero(_parse_elem(args, args.elem),
                                               cap_depth=args.depth))
    elif args.action == "star":
        elem = _parse_elem(args, args.elem).star()
        _emit(args, elem.to_json(), elem.render())
    elif args.action == "sigma":
        parts = [_parse_elem(args, text) for text in args.elems]
        combined = alg.sigma(*parts)
        _emit(args, combined.to_json(), combined.render())
    elif args.action == "omega":
        items = alg.omega_enumerate(args.ring, args.q, args.level, args.kmax,
                                    size_cap=args.cap, mode=args.mode)
        rendered = [e.render() for e in items]
        _emit(args, {"elements": rendered}, "\n".join(rendered))
    elif args.action == "cdepth":
        result = alg.contraction_depth(_parse_elem(args, args.elem),
                                       cap_depth=args.depth)
        _emit(args, {"depth": str(result)}, str(result))
        return _verdict_exit(result)
    elif args.action == "rcbound":
        profile = alg.row_col_bound_profile(_parse_elem(args, args.elem),
                                            args.depth)
        _emit(args, {"profile": profile},
              " ".join(f"{r}/{c}" for r, c in profile))
    return 0


# -- character commands -------------------------------------------------------------


@_any_digits()
def _exactq_payload(args, value, info) -> tuple[dict, str]:
    from .characters import exact_json

    if isinstance(value, Verdict):
        return {"verdict": str(value)}, str(value)
    payload = exact_json(value, args.q, info["classes_used"], info["depth"])
    payload["largest_component"] = info["largest_component"]
    return payload, payload["value"]


def _cmd_char(args) -> int:
    from . import characters as chars

    if args.action == "spread":
        value, info = chars.spread_char(_parse_elem(args, args.elem),
                                        cap_classes=args.cap_classes,
                                        with_info=True)
        payload, text = _exactq_payload(args, value, info)
        _emit(args, payload, text)
        return _verdict_exit(value)
    elif args.action == "kernel":
        kernel = args.kernel(args.q)
        value, info = chars.algebra_char(_parse_elem(args, args.elem), kernel,
                                         cap_classes=args.cap_classes,
                                         with_info=True)
        payload, text = _exactq_payload(args, value, info)
        if args.json and not isinstance(value, Verdict):
            payload["kernel_psd"] = kernel.psd_report()
        _emit(args, payload, text)
        return _verdict_exit(value)
    elif args.action == "group":
        kernel = args.kernel(args.q)
        rec = _make_rec(args)
        value, info = chars.group_char(rec, parse_word(args.word, args.q),
                                       kernel, cap_classes=args.cap_classes,
                                       with_info=True)
        payload, text = _exactq_payload(args, value, info)
        _emit(args, payload, text)
        return _verdict_exit(value)
    elif args.action == "count":
        count = chars.count_L(_parse_elem(args, args.elem), args.k,
                              cap_classes=args.cap_classes)
        _emit(args, {"count": count}, count)
        return _verdict_exit(count)
    elif args.action == "growth":
        result = chars.growth_constant(
            _parse_elem(args, args.elem), args.kmin, args.kmax,
            cap_classes=args.cap_classes)
        if isinstance(result, Verdict):
            return _emit_verdict(args, result)
        constant, stable = result
        with _any_digits():
            payload = {"constant": chars.render_exact(constant, args.q),
                       "stable": stable}
        _emit(args, payload, f"{payload['constant']} stable={stable}")
    elif args.action == "additivity":
        parts = [_parse_elem(args, text) for text in args.elems]
        report = chars.additivity_check(parts, cap_classes=args.cap_classes)
        if isinstance(report, Verdict):
            return _emit_verdict(args, report)
        with _any_digits():
            text = (f"sigma={report['sigma_value']} "
                    f"sum={report['component_sum']} additive={report['additive']}")
        _emit(args, report, text)
        return 0 if report["additive"] else 1
    elif args.action == "witness":
        target = Fraction(args.target)
        found = chars.theorem_witness(target, args.q, ring=args.ring,
                                      mode=args.mode,
                                      cap_classes=args.cap_classes)
        if isinstance(found, Verdict):
            _emit(args, {"found": False, "reason": found.limit}, str(found))
            return 2
        _emit(args, {"found": True, "element": found.render()}, found.render())
    return 0


# -- julia commands -------------------------------------------------------------


def _cmd_julia(args) -> int:
    from . import dynamics

    center, width = args.viewport
    px, py = args.pixels
    cfg = dynamics.RenderConfig(center=center, width=width,
                                pixels_x=px, pixels_y=py, points=args.points,
                                seed=args.seed, burn_in=args.burn_in)
    f = dynamics.PRESETS[args.map]
    grid = dynamics.render(dynamics.julia_points(f, cfg), cfg)
    dynamics.write_pgm(args.out, grid)
    print(f"wrote {args.out} ({px}x{py}, {args.points} points)")
    return 0


# -- verify commands -------------------------------------------------------------


def _report(results) -> int:
    failed = 0
    for result in results:
        print(result.line())
        if not result.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_verify(args) -> int:
    from . import verification

    # --q and --kmax are in ``args`` only when given
    tower = {"qs": (args.q,)} if "q" in args else {}
    if "kmax" in args:
        tower["k_max"] = args.kmax
    if tower and args.suite != "lemma-infinitesimal":
        raise ValueError("--q and --kmax are read only by lemma-infinitesimal")
    return _report([check(**tower) if check is verification.check_tower_values
                    else check() for check in verification.SUITES[args.suite]])


# -- parser -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser that reports an argument it does not take itself, so that a
    subcommand's stray flag is shown under that subcommand's usage line.

    A parser made with ``fill`` has it add the parser's arguments when it
    first parses or prints its usage or help: ``julia render`` and
    ``verify`` read their choices from the engines that only they load."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def _filled(self) -> None:
        fill, self._fill = self._fill, None
        if fill is not None:
            fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self._filled()
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return args, extras

    def format_usage(self) -> str:
        self._filled()
        return super().format_usage()

    def format_help(self) -> str:
        self._filled()
        return super().format_help()


def _julia_render_arguments(p: argparse.ArgumentParser) -> None:
    from .dynamics import PRESETS

    p.add_argument("--map", choices=sorted(PRESETS), default="f2")
    p.add_argument("--out", default="julia.pgm")
    p.add_argument("--points", default=100_000, type=partial(
        _int_from_flag, least=0, what="a point count"))
    p.add_argument("--viewport", default="0,0,4", type=_viewport_from_flag,
                   help="cx,cy,width")
    p.add_argument("--pixels", default="400,400", type=_pixels_from_flag,
                   help="px,py")
    p.add_argument("--burn-in", default=100, dest="burn_in", type=partial(
        _int_from_flag, least=0, what="a burn-in"))
    p.add_argument("--seed", type=int, default=0)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .verification import SUITES

    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--q", type=_q_from_flag, default=argparse.SUPPRESS,
                   help="one alphabet size (default 2, 3 and 5)")
    p.add_argument("--kmax", default=argparse.SUPPRESS,
                   type=partial(_int_from_flag, least=1, what="a tower exponent"),
                   help="largest tower exponent (default 5)")


def build_parser() -> argparse.ArgumentParser:
    """The ``tmss`` parser; each subcommand takes only the flags it reads.
    Building it loads no engine: ``--ring`` and ``--kernel`` are converted,
    and ``julia render`` and ``verify`` filled, only for the subcommand
    that runs."""
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--q", type=_q_from_flag, default=2,
                      help="alphabet size (default 2)")
    base.add_argument("--json", action="store_true")
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--ring", type=_ring_from_flag, default="Q",
                      help="coefficient ring: Q, Z or Fp:<p>")
    ring.add_argument("--mode", choices=("A", "B"), default="B",
                      help="positive-letter or group-algebra monomials")
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", choices=tuple(_PRESETS), default="tm",
                        help="wreath recursion preset")
    states = argparse.ArgumentParser(add_help=False)
    states.add_argument("--cap-states", type=_cap_from_flag, default=100_000)
    classes = argparse.ArgumentParser(add_help=False)
    classes.add_argument("--cap-classes", type=_cap_from_flag, default=10_000)

    def command(subs, name: str, parents, *positionals: str, depth=None):
        p = subs.add_parser(name, parents=parents)
        for positional in positionals:
            p.add_argument(positional)
        if depth is not None:
            p.add_argument("--depth", type=_depth_from_flag, default=depth,
                           help="default %(default)s")
        return p

    parser = _Parser(
        prog="tmss",
        description="Exact tools for substitution self-similar groups, "
                    "algebras and their characters")
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="substitution word utilities")
    ws = word.add_subparsers(dest="action", required=True)
    command(ws, "prefix", [base]).add_argument("n", type=int)
    command(ws, "subst", [base], "word").add_argument("--iters", type=int, default=1)
    command(ws, "gamma", [base], "word").add_argument("--shift", type=int, default=1)

    group = sub.add_parser("group", help="wreath recursion operations")
    gs = group.add_subparsers(dest="action", required=True)
    wreath, capped = [base, preset], [base, preset, states]
    command(gs, "decompose", wreath, "word")
    for name in ("trivial", "order", "moved"):
        command(gs, name, capped, "word")
    command(gs, "bounded", capped, "word", depth=10)
    command(gs, "portrait", wreath, "word", depth=3)
    for name in ("act", "section"):
        command(gs, name, wreath, "word", "vertex")
    command(gs, "equal", capped, "left", "right")
    command(gs, "nucleus", capped)

    algebra = sub.add_parser("algebra", help="matrix decomposition arithmetic")
    as_ = algebra.add_subparsers(dest="action", required=True)
    for name, depth in (("phi", None), ("zero", 60), ("star", None),
                        ("cdepth", 12), ("rcbound", 4)):
        command(as_, name, [base, ring], "elem", depth=depth)
    command(as_, "sigma", [base, ring]).add_argument("elems", nargs="+")
    p = command(as_, "omega", [base, ring])
    p.add_argument("--level", default=0,
                   type=partial(_int_from_flag, least=0, what="a level"))
    p.add_argument("--kmax", default=1,
                   type=partial(_int_from_flag, least=0, what="a tower exponent"))
    p.add_argument("--cap", type=_cap_from_flag, default=64)

    char = sub.add_parser("char", help="exact character evaluation")
    cs = char.add_subparsers(dest="action", required=True)
    exact = [base, ring, classes]
    command(cs, "spread", exact, "elem")
    command(cs, "kernel", exact, "elem").add_argument(
        "--kernel", default="ones", type=_kernel_from_flag,
        help="id, ones, or a JSON matrix")
    command(cs, "group", [base, preset, classes], "word").add_argument(
        "--kernel", default="id", type=_kernel_from_flag)
    command(cs, "count", exact, "elem").add_argument("k", type=int)
    p = command(cs, "growth", exact, "elem")
    p.add_argument("--kmin", type=int, default=3)
    p.add_argument("--kmax", type=int, default=6)
    command(cs, "additivity", exact).add_argument("elems", nargs="+")
    command(cs, "witness", exact, "target")

    julia = sub.add_parser("julia", help="Julia set rendering")
    js = julia.add_subparsers(dest="action", required=True)
    js.add_parser("render", fill=_julia_render_arguments)
    sub.add_parser("verify", help="replay the verification suite",
                   fill=_verify_arguments)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage and error already printed
        return 0 if exc.code == 0 else 1  # exit 2 means an exhausted budget
    handlers = {
        "word": _cmd_word,
        "group": _cmd_group,
        "algebra": _cmd_algebra,
        "char": _cmd_char,
        "julia": _cmd_julia,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OverflowError, RecursionError) as exc:
        # bad, oversize or too deep input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print(f"error: division by zero: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:  # julia render cannot write its --out file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
