"""README's table of size limits agrees with the module constants, and
each example of its CLI section runs; every limit is enforced through the
helpers in errors.py, disc_form.py makes a Fraction only where a value
leaves a form, local_arith.py only where the Artin split records a block
and where artin_invariant builds the witness Grams, a Gram matrix is
checked and eliminated by one helper each, Smith forms are made only in
lattice_core, only QuadLattice makes an LLL reduction, from its kept
elimination, the Artin witness Grams are read off the block split, U + U
is decided in one place from the Gram matrix alone, one writer, cli._json,
turns every CLI result into its JSON text, one function strips prime
powers (prime_density._val), one builds block-diagonal Grams
(lattice_core.block_diagonal), one multiplies matrices (_intlinalg.mat_mul,
under every congruence), and a pointed lattice is a (lattice, vector) pair
with no class of its own."""

import ast
import importlib
import io
import json
import re
from pathlib import Path

import k3lattice
from k3lattice import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "k3lattice"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|", re.M)
HELPERS = {"Budget", "check_limit"}
# one example of README's CLI section: the single-quoted stdin of an echo
# piped into it, if any, and the arguments of k3lattice
EXAMPLE = re.compile(r"^(?:echo '([^']*)'[\s\\]*\|\s*)?k3lattice (.*)$",
                     re.M)


def _value(text):
    """'2^22', '10^7' or '10 000' as an int."""
    text = text.replace(" ", "")
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    return int(text)


def test_readme_limits_table_matches_constants():
    rows = ROW.findall(README.read_text())
    assert len(rows) >= 7
    for module, name, value in rows:
        mod = importlib.import_module(f"k3lattice.{module}")
        assert getattr(mod, name) == _value(value), f"{module}.{name}"


def test_readme_cli_examples_run(capsys, monkeypatch):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = EXAMPLE.findall(block)
    assert len(examples) == 12
    for stdin, args in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(args.split()) == 0, args
        out, err = capsys.readouterr()
        assert isinstance(json.loads(out), dict), args
        assert err == "", args


def _called(node, names):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def test_every_limit_goes_through_the_errors_helpers():
    limits = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        raised = {id(node) for node in ast.walk(tree)
                  if _called(node, {"CapacityError"})
                  or isinstance(node, ast.Raise)
                  and isinstance(node.exc, ast.Name)
                  and node.exc.id == "CapacityError"}
        allowed = set()
        if path.name == "cli.py":
            # the interpreter's digit limit is not a module constant
            digit = next(node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "_digit_limit_error")
            allowed = {id(node) for node in ast.walk(digit)
                       if _called(node, {"CapacityError"})}
            assert len(allowed) == 1
        assert raised == allowed, path.name
        for node in ast.walk(tree):
            if _called(node, HELPERS):
                name, constant = node.args[:2]
                assert isinstance(name, ast.Constant), path.name
                assert isinstance(constant, ast.Name), path.name
                assert constant.id == name.value, path.name
                limits.add((path.stem, name.value))
    rows = {(module, name) for module, name, _ in
            ROW.findall(README.read_text())}
    assert limits == rows


def test_disc_form_makes_fractions_only_at_its_boundary():
    # forms are stored in integers over their exponent; only the form's
    # own value methods and the overlattice basis hand out Fractions
    tree = ast.parse((SRC / "disc_form.py").read_text())
    allowed = set()
    for node in tree.body:
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name in {"FiniteQuadraticForm", "overlattice_basis"}):
            allowed.update(id(sub) for sub in ast.walk(node))
    names = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "Fraction"]
    assert any(_called(node, {"Fraction"}) for node in ast.walk(tree))
    outside = [node.lineno for node in names if id(node) not in allowed]
    assert not outside, f"Fraction used at disc_form.py lines {outside}"


def test_local_arith_makes_fractions_only_at_the_witness_boundary():
    # the Artin split eliminates integer rows over one denominator; a block
    # and its basis rows become Fractions where blocks.append records them,
    # and artin_invariant divides the scaled blocks by p
    tree = ast.parse((SRC / "local_arith.py").read_text())
    tops = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    split = tops["_block_split"]
    records = [node for node in ast.walk(split) if _calls("append")(node)
               and getattr(getattr(node.func, "value", None), "id", None)
               == "blocks"]
    assert len(records) == 1
    allowed = {id(sub) for top in (records[0], tops["artin_invariant"])
               for sub in ast.walk(top)}
    names = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "Fraction"]
    assert any(_called(node, {"Fraction"}) for node in ast.walk(records[0]))
    outside = [node.lineno for node in names if id(node) not in allowed]
    assert not outside, f"Fraction used at local_arith.py lines {outside}"
    # and the split keeps no closures
    assert not any(isinstance(node, (ast.FunctionDef, ast.Lambda))
                   for node in ast.walk(split) if node is not split)


def _holders(test):
    """(module, top-level function or class) pairs of src/ whose code has a
    node that passes ``test``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(test(node) for node in ast.walk(top)):
                found.add((path.stem, getattr(top, "name", None)))
    return found


def _calls(name):
    def test(node):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    return test


def test_one_elimination_and_one_symmetric_check():
    # a QuadLattice eliminates its Gram matrix once and keeps the result;
    # det is the only other caller
    assert _holders(_calls("symmetric_elimination")) == {
        ("lattice_core", "QuadLattice"), ("_intlinalg", "det")}
    assert _holders(_calls("check_symmetric")) == {
        ("lattice_core", "QuadLattice"),
        ("_intlinalg", "symmetric_elimination"),
        ("moduli_arith", "FrobeniusPairingInstance"),
        ("bb_form", "SymmetrizedPowerForm"), ("cli", "cmd_bb_recover")}

    def message(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ("must be square" in node.value
                     or "must be symmetric" in node.value))

    assert _holders(message) == {("_intlinalg", "check_symmetric")}


def test_smith_forms_made_only_in_lattice_core():
    # a QuadLattice keeps the Smith form of its Gram matrix; the complement
    # of a vector reads its kernel off the Smith form of one row
    assert _holders(_calls("smith_normal_form")) == {
        ("lattice_core", "QuadLattice"),
        ("lattice_core", "orthogonal_complement")}

    def kernel(node):
        return (_calls("integer_kernel")(node)
                or isinstance(node, ast.FunctionDef)
                and node.name == "integer_kernel")

    assert _holders(kernel) == set()


def test_lll_reductions_made_only_by_quad_lattice():
    # a QuadLattice keeps the reduction of its definite Gram matrix, which
    # vectors_of_norm reads
    assert _holders(_calls("lll_reduction")) == {
        ("lattice_core", "QuadLattice")}


def test_eliminations_are_read_not_redone():
    # lll_reduction starts from the elimination it is given, with no
    # Gram-Schmidt of its own, and local_arith reads its witness Grams off
    # the block split, with nothing from _intlinalg
    tree = ast.parse((SRC / "_intlinalg.py").read_text())
    lll = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "lll_reduction")
    nested = {node.name for node in ast.walk(lll)
              if isinstance(node, ast.FunctionDef)} - {"lll_reduction"}
    assert "add" not in nested
    imports = [node for node in ast.walk(
        ast.parse((SRC / "local_arith.py").read_text()))
        if isinstance(node, ast.ImportFrom)]
    assert not any(node.module == "_intlinalg"
                   or any(alias.name == "_intlinalg" for alias in node.names)
                   for node in imports)


def test_two_planes_decided_in_one_place_without_tags():
    # one site warns UnverifiedHypothesisWarning, and no caller-supplied
    # lineage tags are read anywhere
    def warns(node):
        return (isinstance(node, (ast.Call, ast.Raise)) and any(
            getattr(sub, "id", None) == "UnverifiedHypothesisWarning"
            for sub in ast.walk(node)))

    sites = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if warns(node) and not any(
                 warns(sub) for sub in ast.iter_child_nodes(node))]
    assert len(sites) == 1
    assert _holders(warns) == {("local_arith", "_require_two_planes")}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "summands" not in text and "provenance" not in text, path.name


def test_one_json_writer():
    # cli._json writes a result in one pass; nothing copies it into strings
    # first, and nothing else encodes JSON
    assert _holders(_calls("dump")) == set()
    assert _holders(_calls("dumps")) == {("cli", "_json")}
    assert _holders(lambda node: isinstance(node, ast.FunctionDef)
                    and node.name == "_s") == set()


def test_one_p_adic_valuation():
    # prime powers are stripped by _val alone; kronecker_symbol strips its
    # twos on the way to reciprocity
    def strips(node):
        test = getattr(node, "test", None)
        return (isinstance(node, ast.While) and isinstance(test, ast.Compare)
                and isinstance(test.left, ast.BinOp)
                and isinstance(test.left.op, ast.Mod)
                and isinstance(test.ops[0], ast.Eq)
                and getattr(test.comparators[0], "value", None) == 0)

    assert _holders(strips) == {("prime_density", "_val"),
                                ("prime_density", "kronecker_symbol")}


def test_one_block_diagonal_builder():
    # direct sums and Artin witnesses build block-diagonal Grams through
    # one helper, and each fixed sum is one direct_sum call with no loop
    assert _holders(_calls("block_diagonal")) == {
        ("lattice_core", "direct_sum"), ("local_arith", "artin_invariant")}
    loops = (ast.For, ast.While, ast.comprehension)
    for module, name in (("lattice_core", "k3n_lattice"),
                         ("moduli_arith", "cubic_primitive_lattice")):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        top = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == name)
        assert not any(isinstance(node, loops) for node in ast.walk(top))
        assert sum(map(_calls("direct_sum"), ast.walk(top))) == 1, name


def test_pointed_lattices_are_lattice_vector_pairs():
    # every pointed-lattice function takes (lattice, vector)
    assert _holders(lambda node: isinstance(node, ast.ClassDef)
                    and node.name == "PointedLattice") == set()
    assert not hasattr(k3lattice, "PointedLattice")


def test_one_matrix_product():
    # every matrix product is _intlinalg.mat_mul, over nonzero entries:
    # congruence (g^T a g) is two of them, and overlattice_basis lifts
    # subgroup elements with it
    assert _holders(_calls("mat_mul")) == {
        ("_intlinalg", "congruence"), ("disc_form", "overlattice_basis")}
    tree = ast.parse((SRC / "_intlinalg.py").read_text())
    top = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "congruence")
    body = [node for node in top.body if not (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    assert ast.unparse(body[0].value) == (
        "mat_mul(transpose(g), mat_mul(a, g))")
