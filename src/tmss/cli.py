"""Command-line interface.

Subcommands mirror the library layout: ``word`` for substitution words,
``group`` for the wreath recursion, ``algebra`` for matrix decomposition
arithmetic, ``char`` for exact character evaluation, ``julia`` for the
renderer, and ``verify`` for the replayable verification suite.

Exit codes: 0 for a definite answer, 1 for failures, 2 for inconclusive
verdicts such as a cap being reached.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra as alg
from . import characters as chars
from . import dynamics, verification
from .group import WreathRecursion
from .verdict import Unknown, Verdict
from .words import gamma, parse_word, render_word, theta_iter, tm_prefix


def _ring_from_flag(text: str):
    if text == "Q":
        return alg.RATIONALS
    if text == "Z":
        return alg.INTEGERS
    if text.startswith("Fp:"):
        return alg.PrimeField(int(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(f"unknown ring {text!r}; use Q, Z or Fp:<p>")


def _make_rec(args) -> WreathRecursion:
    preset = getattr(args, "preset", "tm")
    if preset == "tm":
        return WreathRecursion.thue_morse(args.q)
    if preset == "inverted":
        return WreathRecursion.inverted_variant(args.q)
    if preset == "transposed":
        return WreathRecursion.transposed_variant(args.q)
    raise ValueError(f"unknown preset {preset!r}")


def _parse_elem(args, text: str) -> alg.AlgebraElement:
    return alg.parse_element(text, args.ring, args.q, args.mode)


def _kernel_from_flag(q: int, text: str) -> chars.Kernel:
    if text in ("id", "identity"):
        return chars.Kernel.identity(q)
    if text == "ones":
        return chars.Kernel.ones(q)
    return chars.Kernel(json.loads(text))


def _emit(args, payload, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _verdict_exit(verdict) -> int:
    if isinstance(verdict, Unknown):
        return 2
    if isinstance(verdict, Verdict) and verdict.is_unknown:
        return 2
    if isinstance(verdict, alg.ZeroVerdict) and verdict.is_unknown:
        return 2
    return 0


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


def _parse_vertex(text: str, q: int) -> tuple[int, ...]:
    if text in ("", "e"):
        return ()
    vertex = tuple(int(c) for c in text)
    if any(not 0 <= a < q for a in vertex):
        raise ValueError(f"vertex {text!r} leaves the alphabet 0..{q - 1}")
    return vertex


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
                         _parse_vertex(args.vertex, args.q))
        text = "".join(str(a) for a in vertex) or "e"
        _emit(args, {"vertex": list(vertex)}, text)
    elif args.action == "section":
        word = rec.section(parse_word(args.word, args.q),
                           _parse_vertex(args.vertex, args.q))
        _emit(args, {"word": render_word(word)}, render_word(word))
    elif args.action == "trivial":
        verdict = rec.is_trivial(parse_word(args.word, args.q),
                                 cap_states=args.cap_states)
        _emit(args, {"verdict": str(verdict)}, str(verdict))
        return _verdict_exit(verdict)
    elif args.action == "equal":
        verdict = rec.equal(parse_word(args.left, args.q),
                            parse_word(args.right, args.q),
                            cap_states=args.cap_states)
        _emit(args, {"verdict": str(verdict)}, str(verdict))
        return _verdict_exit(verdict)
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
        depth = args.depth if args.depth is not None else 10
        profile = rec.boundedness_profile(parse_word(args.word, args.q), depth,
                                          cap_states=args.cap_states)
        _emit(args, {"profile": profile}, " ".join(str(c) for c in profile))
    elif args.action == "portrait":
        depth = args.depth if args.depth is not None else 3
        data = rec.portrait(parse_word(args.word, args.q), depth)
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
    if args.action == "phi":
        matrix = _parse_elem(args, args.elem).phi()
        data = alg.mat_to_json(matrix)
        _emit(args, {"matrix": data},
              "\n".join("[" + ", ".join(row) + "]" for row in data))
    elif args.action == "zero":
        verdict = alg.is_zero(_parse_elem(args, args.elem),
                              cap_depth=args.depth if args.depth is not None else 60)
        _emit(args, {"verdict": str(verdict)}, str(verdict))
        return _verdict_exit(verdict)
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
        result = alg.contraction_depth(_parse_elem(args, args.elem))
        _emit(args, {"depth": str(result)}, str(result))
        return _verdict_exit(result)
    elif args.action == "rcbound":
        depth = args.depth if args.depth is not None else 4
        profile = alg.row_col_bound_profile(_parse_elem(args, args.elem), depth)
        _emit(args, {"profile": profile},
              " ".join(f"{r}/{c}" for r, c in profile))
    return 0


# -- character commands -------------------------------------------------------------


def _exactq_payload(args, value, info) -> tuple[dict, str]:
    if isinstance(value, Unknown):
        return {"verdict": str(value)}, str(value)
    payload = chars.exact_json(value, args.q,
                               info["classes_used"] if info else 0,
                               info["depth"] if info else 0)
    return payload, payload["value"]


def _cmd_char(args) -> int:
    if args.action == "spread":
        value, info = chars.spread_char(_parse_elem(args, args.elem),
                                        cap_classes=args.cap_classes,
                                        with_info=True)
        payload, text = _exactq_payload(args, value, info)
        _emit(args, payload, text)
        return _verdict_exit(value)
    elif args.action == "kernel":
        kernel = _kernel_from_flag(args.q, args.kernel)
        value, info = chars.algebra_char(_parse_elem(args, args.elem), kernel,
                                         cap_classes=args.cap_classes,
                                         with_info=True)
        payload, text = _exactq_payload(args, value, info)
        if not isinstance(value, Unknown):
            payload["kernel_psd"] = kernel.psd_report()
        _emit(args, payload, text)
        return _verdict_exit(value)
    elif args.action == "group":
        kernel = _kernel_from_flag(args.q, args.kernel)
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
        _emit(args, {"count": count}, str(count))
    elif args.action == "growth":
        constant, stable = chars.growth_constant(
            _parse_elem(args, args.elem), args.kmin, args.kmax,
            cap_classes=args.cap_classes)
        payload = {"constant": chars.render_exact(constant, args.q),
                   "stable": stable}
        _emit(args, payload, f"{payload['constant']} stable={stable}")
    elif args.action == "additivity":
        parts = [_parse_elem(args, text) for text in args.elems]
        report = chars.additivity_check(parts, cap_classes=args.cap_classes)
        text = (f"sigma={report['sigma_value']} sum={report['component_sum']} "
                f"additive={report['additive']}")
        _emit(args, report, text)
        return 0 if report["additive"] else 1
    elif args.action == "witness":
        target = Fraction(args.target)
        found = chars.theorem_witness(target, args.q, ring=args.ring,
                                      mode=args.mode)
        if isinstance(found, chars.NotFound):
            _emit(args, {"found": False, "reason": found.reason}, str(found))
            return 2
        _emit(args, {"found": True, "element": found.render()}, found.render())
    return 0


# -- julia commands -------------------------------------------------------------


def _cmd_julia(args) -> int:
    if args.map not in dynamics.PRESETS:
        print(f"unknown map {args.map!r}; presets: "
              + ", ".join(sorted(dynamics.PRESETS)), file=sys.stderr)
        return 1
    cx, cy, width = (float(x) for x in args.viewport.split(","))
    px, py = (int(x) for x in args.pixels.split(","))
    cfg = dynamics.RenderConfig(center=complex(cx, cy), width=width,
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
    if args.suite == "all":
        return _report(verification.run_all())
    if args.suite == "lemma-tm":
        return _report([verification.check_substitution_diagonal()])
    if args.suite == "lemma-infinitesimal":
        qs = (args.q,) if args.q_explicit else (2, 3, 5)
        return _report([verification.check_tower_values(qs=qs, k_max=args.kmax),
                        verification.check_base_values()])
    if args.suite == "lemma-additive":
        return _report([verification.check_sigma_additivity()])
    if args.suite == "presentation":
        return _report([verification.check_word_problem(),
                        verification.check_algebra_relations()])
    if args.suite == "counting":
        return _report([verification.check_counting_defect()])
    print(f"unknown verification suite {args.suite!r}", file=sys.stderr)
    return 1


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2,
                        help="alphabet size (default 2)")
    common.add_argument("--ring", type=_ring_from_flag, default=alg.RATIONALS,
                        help="coefficient ring: Q, Z or Fp:<p>")
    common.add_argument("--mode", choices=("A", "B"), default="B",
                        help="positive-letter or group-algebra monomials")
    common.add_argument("--cap-classes", type=int, default=10_000)
    common.add_argument("--cap-states", type=int, default=100_000)
    common.add_argument("--depth", type=int, default=None)
    common.add_argument("--json", action="store_true")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--preset", choices=("tm", "inverted", "transposed"),
                        default="tm", help="wreath recursion preset")

    parser = argparse.ArgumentParser(
        prog="tmss",
        description="Exact tools for substitution self-similar groups, "
                    "algebras and their characters")
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="substitution word utilities")
    ws = word.add_subparsers(dest="action", required=True)
    p = ws.add_parser("prefix", parents=[common])
    p.add_argument("n", type=int)
    p = ws.add_parser("subst", parents=[common])
    p.add_argument("word")
    p.add_argument("--iters", type=int, default=1)
    p = ws.add_parser("gamma", parents=[common])
    p.add_argument("word")
    p.add_argument("--shift", type=int, default=1)

    group = sub.add_parser("group", help="wreath recursion operations")
    gs = group.add_subparsers(dest="action", required=True)
    for name in ("decompose", "trivial", "order", "moved", "bounded", "portrait"):
        p = gs.add_parser(name, parents=[common])
        p.add_argument("word")
    for name in ("act", "section"):
        p = gs.add_parser(name, parents=[common])
        p.add_argument("word")
        p.add_argument("vertex")
    p = gs.add_parser("equal", parents=[common])
    p.add_argument("left")
    p.add_argument("right")
    gs.add_parser("nucleus", parents=[common])

    algebra = sub.add_parser("algebra", help="matrix decomposition arithmetic")
    as_ = algebra.add_subparsers(dest="action", required=True)
    for name in ("phi", "zero", "star", "cdepth", "rcbound"):
        p = as_.add_parser(name, parents=[common])
        p.add_argument("elem")
    p = as_.add_parser("sigma", parents=[common])
    p.add_argument("elems", nargs="+")
    p = as_.add_parser("omega", parents=[common])
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--kmax", type=int, default=1)
    p.add_argument("--cap", type=int, default=64)

    char = sub.add_parser("char", help="exact character evaluation")
    cs = char.add_subparsers(dest="action", required=True)
    p = cs.add_parser("spread", parents=[common])
    p.add_argument("elem")
    p = cs.add_parser("kernel", parents=[common])
    p.add_argument("elem")
    p.add_argument("--kernel", default="ones",
                   help="id, ones, or a JSON matrix")
    p = cs.add_parser("group", parents=[common])
    p.add_argument("word")
    p.add_argument("--kernel", default="id")
    p = cs.add_parser("count", parents=[common])
    p.add_argument("elem")
    p.add_argument("k", type=int)
    p = cs.add_parser("growth", parents=[common])
    p.add_argument("elem")
    p.add_argument("--kmin", type=int, default=3)
    p.add_argument("--kmax", type=int, default=6)
    p = cs.add_parser("additivity", parents=[common])
    p.add_argument("elems", nargs="+")
    p = cs.add_parser("witness", parents=[common])
    p.add_argument("target")

    julia = sub.add_parser("julia", help="Julia set rendering")
    js = julia.add_subparsers(dest="action", required=True)
    p = js.add_parser("render", parents=[common])
    p.add_argument("--map", default="f2")
    p.add_argument("--out", default="julia.pgm")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--viewport", default="0,0,4")
    p.add_argument("--pixels", default="400,400")
    p.add_argument("--burn-in", type=int, default=100, dest="burn_in")

    verify = sub.add_parser("verify", help="replay the verification suite")
    verify.add_argument("suite", choices=(
        "all", "lemma-tm", "lemma-infinitesimal", "lemma-additive",
        "presentation", "counting"))
    verify.add_argument("--q", type=int, default=None, dest="q_flag")
    verify.add_argument("--kmax", type=int, default=5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        args.q_explicit = args.q_flag is not None
        args.q = args.q_flag if args.q_flag is not None else 2
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
    except (ValueError, chars.SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print(f"error: division by zero: {exc}", file=sys.stderr)
        return 1
    except chars.ClassExplosionError as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
