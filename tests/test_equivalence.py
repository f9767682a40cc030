"""The equivalence table (tests/equivalence.py): the rows that no former test
held, and the checks that every required fast path has a row and that every
row runs in a test; and the mutant table (tests/mutants.py), checked without
running a mutant."""

import ast
from pathlib import Path

import numpy as np
import pytest

import kgt.model
import kgt.optim
import kgt.tensor
from equivalence import CASES, ROWS, check, tape_ops
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent

REQUIRED = {
    *("gelu", "masked_softmax", "_gemm"),  # the numpy kernels behind the tape ops
    *("AdamW.step", "clip_global_norm", "attention_layer", "moe_ffn", "forward"),  # the functions built from them
}
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


@DTYPES
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("hidden", [64, 128])
def test_gemm_keeps_one_row_on_gemm(hidden, transposed, dtype):
    check("_gemm/zero-padded-row", transposed=transposed, dtype=dtype, hidden=hidden)


@DTYPES
@pytest.mark.parametrize("width", [1, 5, 12])
def test_masked_softmax_matches_boolean_mask(width, dtype):
    check("masked_softmax/former-boolean-mask", width=width, dtype=dtype)


def test_every_required_fast_path_has_a_row():
    assert {"add", "moe_experts", "answer_masked_cross_entropy"} <= tape_ops()
    covered = {case.name.split("/")[0] for case in CASES}
    assert sorted((tape_ops() | REQUIRED) - covered) == []


def test_every_fast_path_names_a_function_of_the_package():
    for case in CASES:
        path = case.name.split("/")[0].split(".")
        owner = next(m for m in (kgt.tensor, kgt.model, kgt.optim) if hasattr(m, path[0]))
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner), case.name


def test_every_row_runs_in_a_test():
    checked = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check" and node.args:
                checked.add(getattr(node.args[0], "value", None))
    assert len(ROWS) == len(CASES)  # no two rows share a name
    assert sorted(set(ROWS) ^ checked, key=str) == []


def test_every_mutant_changes_text_found_once():
    # a refactor that moves the mutated code must update its row
    for mutant in MUTANTS:
        text = (ROOT / "src" / "kgt" / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1 and mutant.new != mutant.old, mutant.name


def defined_tests():
    """``(id, node)`` of each test function of ``tests/test_*.py``, its id as pytest takes it without parameters."""
    for path in sorted(ROOT.glob("tests/test_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            methods, prefix = (node.body, f"{node.name}::") if isinstance(node, ast.ClassDef) else ([node], "")
            for f in methods:
                if isinstance(f, ast.FunctionDef) and f.name.startswith("test_"):
                    yield f"tests/{path.name}::{prefix}{f.name}", f


def test_every_mutant_killer_names_a_test():
    """Each killer, its parametrize id stripped, is a test function of its module, in its class if it names one."""
    defined = {name for name, _ in defined_tests()}
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.killers, mutant.name
        for killer in mutant.killers:
            assert killer.partition("[")[0] in defined, (mutant.name, killer)


def test_every_test_of_an_oracle_kills_a_mutant():
    """A test that uses a ``Test oracle:`` helper of tests/helpers.py is a killer of some mutant, so that a
    twin that no mutant shows to catch a fault cannot come back."""
    helpers = ast.parse((ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")).body
    oracles = {
        node.name
        for node in helpers
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (ast.get_docstring(node) or "").startswith("Test oracle:")
    }
    killers = {killer.partition("[")[0] for mutant in MUTANTS for killer in mutant.killers}
    for name, node in defined_tests():
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & oracles
        assert not used or name in killers, (name, sorted(used))
