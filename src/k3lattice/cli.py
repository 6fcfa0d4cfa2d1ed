"""Command-line surface: every computation behind one binary with JSON in
and JSON out.

Exit codes: 0 success, 2 malformed input or flags, 3 domain violation,
4 inconsistent data.  One writer, ``_json``, turns a result into JSON text
in one pass, every integer and rational as an exact decimal string that
survives JSON, and main writes nothing before the whole text is built.
Output is byte-identical for identical input; volatile metadata only
appears under --meta, outside the data object.
"""

import argparse
import datetime
import json
import re
import sys
import warnings
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

from . import __version__
from . import _intlinalg as la
from .bb_form import SymmetrizedPowerForm, degree_to_bb, recover_form
from .disc_form import disc_local_part, discriminant_group
from .enumeration import vectors_of_norm
from .errors import (Budget, CapacityError, DegenerateLatticeError,
                     DomainError, InconsistencyError, InvalidGramError,
                     StructureError)
from .lattice_core import QuadLattice
from .local_arith import (artin_invariant, jordan_decomposition,
                          pointed_equivalent_at_p, pointed_invariants)
from .moduli_arith import (MukaiVector, is_supersingular_newton,
                           mukai_lattice, mukai_pairing,
                           mukai_perp_disc_check, newton_polygon)
from .prime_density import (empirical_density, factorize,
                            field_discriminant, is_prime, kronecker_symbol,
                            union_inert_density)

# Index tuples one bb-recover request may walk through w_basis_values, summed
# over its w calls: a call on vectors with supports S_1..S_2n walks
# |S_1| * ... * |S_2n| tuples.
W_TUPLE_BUDGET = 30_000

# Vector entries one bb-recover request with q passes to its w, summed over
# its w calls: a call on 2n vectors of rank r reads 2n * r entries, and a
# request makes (r + 1)^2 calls (r^2 + 1 + r(r + 1)/2 at n = 1).  The calls'
# vectors are xi and the unit vectors e_i, and they multiply integers of
# about the bits of q's common denominator D plus those of the largest entry
# of q or xi: each entry counts once per 64-bit word of that size.
W_ENTRY_BUDGET = 1 << 21


def _digit_limit_error(what):
    limit = sys.get_int_max_str_digits()
    return CapacityError(
        f"{what} has more than {limit} digits, the limit of "
        f"sys.get_int_max_str_digits() = {limit}")


def _check_digits(text):
    """Raise CapacityError if the decimal string has a digit run longer than
    int() converts (sys.get_int_max_str_digits(); 0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run.replace("_", "")) > limit
                     for run in re.findall(r"[\d_]+", text)):
        raise _digit_limit_error("an input integer")


def _int(x):
    if isinstance(x, bool):
        raise InvalidGramError("expected an integer, got a boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x.strip())
        except ValueError:
            _check_digits(x)
            raise
    raise InvalidGramError(f"expected an integer or decimal string: {x!r}")


def _frac(x):
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise InvalidGramError(f"zero denominator: {x!r}") from None
        except ValueError:
            _check_digits(x)
            raise
    if isinstance(x, int):
        return Fraction(_int(x))  # _int refuses a boolean
    raise InvalidGramError(f"expected a rational string: {x!r}")


def _json(x, pad="\n"):
    """json.dumps(x, indent=2, sort_keys=True), but each int and Fraction as
    an exact decimal string; pad is the newline and indent of x's line.  An
    int past the digit limit raises ValueError."""
    if isinstance(x, (dict, list, tuple)):
        inner = pad + "  "
        if isinstance(x, dict):
            ends, items = "{}", [f"{json.dumps(k)}: {_json(x[k], inner)}"
                                 for k in sorted(x)]
        else:  # ints, the bulk of a large result, are written without a call
            ends, items = "[]", [f'"{v}"' if type(v) is int
                                 else _json(v, inner) for v in x]
        return (ends[0] + inner + ("," + inner).join(items) + pad + ends[1]
                if items else ends)
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        return json.dumps(x)  # a str, bool or None
    return f'"{x}"'


def _array(obj, field, entry):
    """A JSON array field, each entry read by ``entry``."""
    if not isinstance(obj, list):
        raise InvalidGramError(f"{field} must be a JSON array")
    return [entry(x) for x in obj]


def _load_gram(obj):
    if not isinstance(obj, list) or not obj:
        raise InvalidGramError("gram must be a non-empty 2-D array")
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise InvalidGramError("gram must be a 2-D array")
        rows.append([_int(x) for x in row])
    return rows  # QuadLattice checks that it is square and symmetric


def _load_doc(payload):
    if not isinstance(payload, dict) or "gram" not in payload:
        raise InvalidGramError("document must contain a 'gram' field")
    return QuadLattice(_load_gram(payload["gram"]))


def _read_payload():
    text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidGramError(f"malformed JSON: {e}")
    except ValueError:  # a number literal past int()'s digit limit
        raise _digit_limit_error("an input integer") from None


def _form_to_json(form):
    return {
        "invariant_factors": form.invariant_factors,
        "q_values": form.q_values,
    }


def cmd_disc(payload):
    lat = _load_doc(payload)
    form = discriminant_group(lat)
    local = {str(ell): _form_to_json(disc_local_part(form, ell))
             for ell, _ in factorize(form.order)}
    out = _form_to_json(form)
    out["order"] = form.order
    out["local_parts"] = local
    return out


def _load_w_values(obj, n, r):
    """Samples of w keyed by sorted basis-index multisets; a key may list
    its 2n indices in any order."""
    if not isinstance(obj, dict):
        raise InvalidGramError("w_basis_values must be a JSON object")
    values = {}
    for key, val in obj.items():
        combo = tuple(sorted(_int(t) for t in key.split(",")))
        if len(combo) != 2 * n:
            raise InvalidGramError(
                f"w_basis_values key {key!r} has {len(combo)} indices, "
                f"expected {2 * n}")
        if not all(0 <= i < r for i in combo):
            raise InvalidGramError(
                f"w_basis_values key {key!r} has an index outside "
                f"0..{r - 1}")
        value = _frac(val)
        if values.setdefault(combo, value) != value:
            raise InvalidGramError(
                f"w_basis_values key {key!r} gives {val!r} for {combo}, "
                f"which another key sets to {values[combo]}")
    return values


def cmd_bb_recover(payload):
    n = _int(payload["n"])
    if "degree" in payload:
        res = degree_to_bb(_int(payload["degree"]), n)
        return {
            "root": res.root,
            "is_integral": res.is_integral,
            "interval": res.interval,
        }
    xi = _array(payload["xi"], "xi", _frac)
    if "q" in payload:
        q = _array(payload["q"], "q", lambda row: _array(row, "q", _frac))
        la.check_symmetric(q, InvalidGramError, "q")
        if len(q) != len(xi):
            raise InvalidGramError("q must have one row per entry of xi")
        xi_norm = la.vec_mat_vec(xi, q, xi)
        form = SymmetrizedPowerForm(q, n)
        meter = Budget("W_ENTRY_BUDGET", W_ENTRY_BUDGET,
                       "bb-recover with q needs", "w argument entries")
        words = 1 + (form._den.bit_length() + max(
            (x.numerator.bit_length() + x.denominator.bit_length()
             for row in q + [xi] for x in row), default=0)) // 64

        def w(vecs):
            meter.charge(sum(map(len, vecs)) * words)
            return form(vecs)
    elif "w_basis_values" in payload:
        r = len(xi)
        values = _load_w_values(payload["w_basis_values"], n, r)
        xi_norm = _frac(payload["xi_norm"])
        meter = Budget("W_TUPLE_BUDGET", W_TUPLE_BUDGET, "bb-recover needs",
                       "w_basis_values index tuples")

        def w(vecs):
            # only index tuples inside every vector's support contribute
            supports = [[i for i, x in enumerate(v) if x] for v in vecs]
            meter.charge(prod(map(len, supports)))
            total = Fraction(0)
            for combo in product(*supports):
                key = tuple(sorted(combo))
                if key not in values:
                    raise InvalidGramError(
                        f"missing sample for basis multiset {key}")
                total += prod(v[i] for v, i in zip(vecs, combo)) * values[key]
            return total
    else:
        raise InvalidGramError("payload needs 'degree', 'q' or "
                               "'w_basis_values'")
    rec = recover_form(w, n, xi, xi_norm)
    return {"q": rec}


def _inert_in_any(ds):
    """Predicate on the sieve's primes p: p is inert in Q(sqrt(-d)) for
    some d in ds.  Each field discriminant is computed once, and p, prime by
    construction, is not tested for primality again."""
    discs = [field_discriminant(d) for d in ds]
    return lambda p: any(kronecker_symbol(D, p) == -1 for D in discs)


def cmd_density(args):
    if args.bound < 100:
        raise InvalidGramError("--bound must be at least 100")
    chosen = [x is not None and x is not False
              for x in (args.fermat, args.inert, args.union)]
    if sum(chosen) != 1:
        raise InvalidGramError(
            "exactly one of --fermat / --inert / --union is required")
    if args.fermat:
        # fermat_cubic_supersingular's criterion; false at p = 3
        predicate = lambda p: p % 3 == 2
        theoretical = Fraction(1, 2)
        label = "fermat-cubic-supersingular"
    elif args.inert is not None:
        ds = [_int(x) for x in args.inert.split(",")]
        predicate = _inert_in_any(ds)
        theoretical = None
        label = f"inert-in-any:{','.join(map(str, ds))}"
    else:
        ps = [_int(x) for x in args.union.split(",")]
        for q in ps:
            if not is_prime(q):
                raise InvalidGramError(f"--union entries must be prime: {q}")
        predicate = _inert_in_any(ps)
        theoretical = union_inert_density(ps)
        label = f"union-inert:{','.join(map(str, ps))}"
    rep = empirical_density(predicate, args.bound, theoretical)
    return {
        "predicate": label,
        "bound": rep.bound,
        "total_primes": rep.total_primes,
        "hits": rep.hits,
        "empirical_density": rep.empirical_density,
        "theoretical_density": rep.theoretical_density,
    }


def cmd_newton(payload):
    coeffs = _array(payload["coeffs"], "coeffs", _int)
    p = _int(payload["p"])
    polygon = newton_polygon(coeffs, p)
    out = {"p": p, "slopes": polygon.slopes}
    if "weight" in payload:
        out["supersingular"] = is_supersingular_newton(
            polygon, _int(payload["weight"]))
    return out


def cmd_artin(payload):
    lat = _load_doc(payload)
    p = _int(payload["p"])
    res = artin_invariant(lat, p)
    return {
        "p": p,
        "sigma": res.sigma,
        "superspecial": res.superspecial,
        "unscaled_basis": res.unscaled_basis,
        "scaled_basis": res.scaled_basis,
    }


def cmd_mukai(payload):
    ns = _load_doc({"gram": payload["ns"]} if isinstance(payload["ns"], list)
                   else payload["ns"])

    def load_vec(obj):
        return MukaiVector(r=_int(obj["r"]),
                           c1=_array(obj["c1"], "c1", _int),
                           s=_int(obj["s"]))

    v = load_vec(payload["v"])
    big = mukai_lattice(ns)
    out = {
        "lattice_rank": big.rank,
        "lattice_det": big.det,
        "v_square": mukai_pairing(v, v, ns),
    }
    if "w" in payload:
        out["pairing"] = mukai_pairing(v, load_vec(payload["w"]), ns)
    if "p" in payload:
        rep = mukai_perp_disc_check(v, ns, _int(payload["p"]))
        out["disc_check"] = {
            "p": rep.prime,
            "perp_rank": rep.perp_rank,
            "perp_det": rep.perp_det,
            "ns_det": rep.ns_det,
            "perp_p_exponent": rep.perp_p_exponent,
            "ns_p_exponent": rep.ns_p_exponent,
            "orders_match": rep.orders_match,
            "bound_p20_ok": rep.bound_p20_ok,
        }
    return out


def _blocks_to_json(dec):
    return [{"scale": k, "rank": r, "det_class": c} for k, r, c in dec.blocks]


def cmd_jordan(payload):
    lat = _load_doc(payload)
    p = _int(payload["p"])
    dec = jordan_decomposition(lat, p)
    return {"p": p, "blocks": _blocks_to_json(dec)}


def cmd_enumerate(payload):
    lat = _load_doc(payload)
    norm = _int(payload["norm"])
    vs = vectors_of_norm(lat, norm)
    return {"norm": norm, "count": len(vs), "vectors": vs.vectors}


def cmd_pointed(payload):
    lat = _load_doc(payload)
    point = _array(payload["point"], "point", _int)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inv = pointed_invariants(lat, point)
        out = {
            "signature": inv.signature,
            "point_norm": inv.point_norm,
            "complement_det": inv.complement_det,
            "odd_local": {str(p): _blocks_to_json(dec)
                          for p, dec in inv.odd_local},
            "two_part": _form_to_json(inv.two_part),
        }
        if "point2" in payload:
            point2 = _array(payload["point2"], "point2", _int)
            # a point compared with itself needs no second complement
            out["equal_invariants"] = (
                point2 == point or inv == pointed_invariants(lat, point2))
            if "p" in payload:
                out["equivalent_at_p"] = pointed_equivalent_at_p(
                    lat, point, point2, _int(payload["p"]))
    if caught:
        out["warnings"] = sorted({str(w.message) for w in caught})
    return out


@cache
def build_parser():
    """The argparse parser, built once per process; main looks the command's
    cmd_<name> up in this module when it runs."""
    parser = argparse.ArgumentParser(
        prog="k3lattice",
        description="Exact quadratic-lattice arithmetic with JSON")
    parser.add_argument("--meta", action="store_true",
                        help="wrap output with volatile metadata")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, txt in [
        ("disc", "discriminant group of a Gram document"),
        ("bb-recover",
         "recover a base form from its symmetrized power (or degree mode)"),
        ("newton", "Newton polygon of an integer polynomial"),
        ("artin", "Artin invariant of a Tate-type lattice"),
        ("mukai", "Mukai lattice pairing and disc comparison"),
        ("jordan", "odd-p Jordan decomposition"),
        ("enumerate", "vectors of one norm (definite)"),
        ("pointed", "pointed-lattice invariants"),
    ]:
        sub.add_parser(name, help=txt)

    d = sub.add_parser("density", help="prime splitting densities")
    d.add_argument("--fermat", action="store_true",
                   help="supersingular reduction of the Fermat cubic")
    d.add_argument("--inert", metavar="D1,D2,...",
                   help="inert in any of Q(sqrt(-D_i))")
    d.add_argument("--union", metavar="P1,P2,...",
                   help="inert in any of Q(sqrt(-p_i)), distinct primes")
    d.add_argument("--bound", type=int, required=True,
                   help="sieve bound (>= 100)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    cmd = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        data = (cmd(args) if args.command == "density"
                else cmd(_read_payload()))
        if args.meta:
            data = {"data": data, "meta": {
                "tool": "k3lattice", "version": __version__,
                "generated_at": datetime.datetime.now(
                    datetime.timezone.utc).isoformat()}}
        try:
            text = _json(data)
        except ValueError:  # str() of an integer past the digit limit
            raise _digit_limit_error("a result integer") from None
    except InconsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DegenerateLatticeError, DomainError, StructureError,
            CapacityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (InvalidGramError, KeyError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
