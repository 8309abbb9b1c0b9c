"""Differential check: the one-walk verifier against the reference.

``reference_verifier`` is the verifier as it stood before the one-walk
rewrite; it derives each operand's visibility from parent links, the
one-walk verifier from the scope its walk has built.  Both must report the
same diagnostics (message, path, notes, order) in fail-fast and in collect
mode.  ``tests/test_verifier_negative.py`` compares them on its corrupted
modules; this file covers the lint corpus, every pass output of every
pipeline variant for both paper kernels, and randomly mutated modules.

On every input here and in the negative tests the two agree in collect
mode too, because a value whose owner link is broken enters no scope in
the one-walk verifier, which is where the reference's link climb ends up
as well.  Where the two can still differ is collect mode on a corrupt
input after its first error: an op whose parent link points at another
block has its operands checked against the scope the walk found it in,
while the reference checked them against the blocks the corrupt link
leads to.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from reference_verifier import assert_agrees_with_reference

from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import PIPELINE_VARIANTS
from repro.ir import verifier
from repro.ir.core import OpResult

CORPUS = sorted((Path(__file__).parent / "diagnostics").glob("*.py"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_lint_corpus(path):
    spec = importlib.util.spec_from_file_location(f"corpus_{path.stem}", path)
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    assert assert_agrees_with_reference(fixture.build()) == ("returned", [])


@pytest.mark.parametrize("variant", sorted(PIPELINE_VARIANTS))
@pytest.mark.parametrize("kernel", ["pw", "tracer"])
def test_every_pass_output_of_every_variant(
    kernel, variant, pw_module, tracer_module, monkeypatch
):
    """The pass manager verifies its input and every pass's output through
    ``verify_module_diagnostics``; each of those modules goes through both
    verifiers."""
    checked = []

    def differential(module):
        collected = assert_agrees_with_reference(module)
        checked.append(module)
        return collected[1]

    monkeypatch.setattr(verifier, "verify_module_diagnostics", differential)
    module = pw_module if kernel == "pw" else tracer_module
    compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant])
    compiler.compile(module)
    assert len(checked) == len(compiler.pass_statistics) + 1


# -- mutated modules -------------------------------------------------------------

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["reorder", "move", "swap"]),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    ),
    min_size=1,
    max_size=4,
)


def _blocks_outside(module, op):
    """The blocks of ``module`` that ``op`` can move into without nesting
    inside itself."""
    inside = set(op.walk())
    return [
        block
        for owner in module.walk()
        if owner not in inside
        for region in owner.regions
        for block in region.blocks
    ]


def mutate(module, steps):
    """Apply ``steps`` through the IR's own editing API, so every link stays
    intact and only order, placement and operands change."""
    for kind, a, b, c in steps:
        ops = list(module.walk())[1:]
        if kind == "swap":
            users = [op for op in ops if op.operands]
            x, y = users[a % len(users)], users[b % len(users)]
            i, j = c % len(x.operands), (c // 7) % len(y.operands)
            vx, vy = x.operands[i], y.operands[j]
            x.replace_operand(i, vy)
            y.replace_operand(j, vx)
            continue
        op = ops[a % len(ops)]
        if kind == "reorder":
            target = op.parent
        else:
            targets = _blocks_outside(module, op)
            target = targets[b % len(targets)]
        op.detach()
        target.insert_op(op, c % (len(target.ops) + 1))


@pytest.fixture(scope="module")
def mutation_bases(pw_module, tracer_xclbin):
    """A stencil-level module and an HLS-level one (deeper nesting)."""
    return {"pw-stencil": pw_module, "tracer-hls": tracer_xclbin.hls_module}


@pytest.mark.parametrize("base", ["pw-stencil", "tracer-hls"])
@settings(max_examples=40, deadline=None)
@given(steps=MUTATIONS)
def test_mutated_modules(base, steps, mutation_bases):
    module = mutation_bases[base].clone()
    mutate(module, steps)
    assert_agrees_with_reference(module)


def move_a_use_above_its_definition(module):
    use = next(
        op
        for op in module.walk()
        if any(isinstance(v, OpResult) and v.op.parent is op.parent for v in op.operands)
    )
    block = use.parent
    use.detach()
    block.insert_op(use, 0)


def test_every_nested_op_as_root(pw_module):
    """A root inside a larger tree sees what its enclosing blocks define
    before it: every op of a module, and of the same module with a use
    moved above its definition, verifies alike under both verifiers."""
    module = pw_module.clone()
    for root in list(module.walk())[1:]:
        assert assert_agrees_with_reference(root) == ("returned", [])
    move_a_use_above_its_definition(module)
    outcomes = [assert_agrees_with_reference(root) for root in module.walk()]
    assert any(diagnostics for _, diagnostics in outcomes)


def test_moved_use_is_reported(pw_module):
    """The comparisons above see findings, not only clean modules: a use
    moved above its definition is reported by both verifiers."""
    module = pw_module.clone()
    move_a_use_above_its_definition(module)
    kind, diagnostics = assert_agrees_with_reference(module)
    assert kind == "returned"
    assert "operand 0 is not visible/dominated at its use" in [
        d.message for d in diagnostics
    ]
