"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.frontends.builder import StencilKernelBuilder
from repro.frontends.expr import BinOp, Constant, Expr, FieldAccess, ScalarRef, UnaryOp
from repro.interp import Interpreter, interpret_stencil_module
from repro.ir.attributes import FloatAttr, IntAttr, UnitAttr
from repro.ir.hashing import canonical_module_text, module_hash
from repro.ir.parser import parse_module
from repro.ir.passes import PassManager
from repro.ir.printer import print_module
from repro.ir.types import f64
from repro.kernels.reference import evaluate_expression
from repro.runtime.streams import FIFOStream
from repro.runtime.window import window_index, window_offsets, window_size
from repro.transforms.canonicalize import CanonicalizePass
from repro.transforms.stencil_to_scf import StencilToSCFPass

# ---------------------------------------------------------------------------
# Window ordering invariants
# ---------------------------------------------------------------------------


@given(rank=st.integers(1, 3), radius=st.integers(1, 3))
def test_window_offsets_are_a_bijection_onto_lane_indices(rank, radius):
    offsets = window_offsets(rank, radius)
    assert len(offsets) == window_size(rank, radius)
    lanes = [window_index(offset, radius) for offset in offsets]
    assert lanes == list(range(len(offsets)))


@given(
    radius=st.integers(1, 3),
    offset=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
def test_window_index_in_range_or_rejected(radius, offset):
    if all(abs(component) <= radius for component in offset):
        lane = window_index(offset, radius)
        assert 0 <= lane < window_size(3, radius)
    else:
        with pytest.raises(ValueError):
            window_index(offset, radius)


# ---------------------------------------------------------------------------
# FIFO stream invariants
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=200))
def test_fifo_preserves_order_and_counts(values):
    stream = FIFOStream("s", depth=8)
    for value in values:
        stream.write(value)
    popped = [stream.read() for _ in range(len(values))]
    assert popped == values
    assert stream.total_pushed == len(values)
    assert stream.total_popped == len(values)
    assert stream.empty()


@given(st.lists(st.integers(), min_size=1, max_size=50), st.integers(1, 10))
def test_fifo_high_water_mark_bounds_queue_length(values, batch):
    stream = FIFOStream("s")
    for start in range(0, len(values), batch):
        for value in values[start : start + batch]:
            stream.write(value)
        while not stream.empty():
            stream.read()
    assert stream.high_water_mark <= batch + stream.high_water_mark * 0 + len(values)
    assert stream.empty()


# ---------------------------------------------------------------------------
# Random stencil expressions: numpy reference == IR interpreter == CPU lowering
# ---------------------------------------------------------------------------


def expression_strategy(max_depth=3):
    offsets = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1))
    leaf = st.one_of(
        st.builds(FieldAccess, st.just("u"), offsets),
        st.builds(FieldAccess, st.just("v"), offsets),
        st.builds(Constant, st.floats(-2.0, 2.0).map(lambda x: round(x, 3))),
        st.just(ScalarRef("alpha")),
    )

    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "max", "min"]), children, children),
            st.builds(UnaryOp, st.sampled_from(["neg", "abs"]), children),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=25, deadline=None)
@given(expr=expression_strategy())
def test_random_expressions_agree_between_reference_and_interpreter(expr):
    shape = (5, 4, 4)
    builder = StencilKernelBuilder("rand_kernel", shape)
    u = builder.input_field("u")
    v = builder.input_field("v")
    out = builder.output_field("out")
    alpha = builder.scalar("alpha")
    builder.add_stencil(out, expr + 0.0 * (u[0, 0, 0] + v[0, 0, 0] + alpha))
    module = builder.build()

    rng = np.random.default_rng(0)
    arrays = {
        "u": rng.standard_normal(shape),
        "v": rng.standard_normal(shape),
        "out": np.zeros(shape),
    }
    scalars = {"alpha": 0.75}

    lower, upper = builder.default_domain()
    expected_interior = evaluate_expression(expr, arrays, scalars, {}, lower, upper)

    data = {k: v.copy() for k, v in arrays.items()}
    data.update(scalars)
    interpret_stencil_module(module, "rand_kernel", data)
    interior = tuple(slice(l, u) for l, u in zip(lower, upper))
    assert np.allclose(data["out"][interior], expected_interior, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(expr=expression_strategy())
def test_cpu_lowering_agrees_with_stencil_interpreter(expr):
    shape = (5, 4, 4)

    def build():
        builder = StencilKernelBuilder("rand_kernel", shape)
        u = builder.input_field("u")
        v = builder.input_field("v")
        out = builder.output_field("out")
        alpha = builder.scalar("alpha")
        builder.add_stencil(out, expr + 0.0 * (u[0, 0, 0] + v[0, 0, 0] + alpha))
        return builder.build()

    rng = np.random.default_rng(1)
    arrays = {
        "u": rng.standard_normal(shape),
        "v": rng.standard_normal(shape),
    }

    stencil_module = build()
    data_a = {"u": arrays["u"].copy(), "v": arrays["v"].copy(), "out": np.zeros(shape), "alpha": 0.5}
    interpret_stencil_module(stencil_module, "rand_kernel", data_a)

    lowered = build()
    PassManager([StencilToSCFPass()]).run(lowered)
    func = lowered.get_symbol("rand_kernel")
    data_b = {"u": arrays["u"].copy(), "v": arrays["v"].copy(), "out": np.zeros(shape), "alpha": 0.5}
    ordered = [data_b[arg.name_hint] for arg in func.entry_block.args]
    Interpreter(lowered).run("rand_kernel", *ordered)
    assert np.allclose(data_a["out"], data_b["out"], atol=1e-12)


# ---------------------------------------------------------------------------
# Canonicalisation preserves semantics of scalar programs
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10).map(lambda x: round(x, 3)), min_size=2, max_size=6),
    x=st.floats(-10, 10).map(lambda x: round(x, 3)),
)
def test_canonicalisation_preserves_scalar_semantics(values, x):
    def build():
        module = ModuleOp()
        func = FuncOp.with_body("f", [f64], [f64])
        module.add_op(func)
        current = func.args[0]
        ops = []
        for index, value in enumerate(values):
            const = arith.ConstantOp.from_float(value)
            op_class = [arith.AddfOp, arith.MulfOp, arith.SubfOp][index % 3]
            combined = op_class(current, const.result)
            ops.extend([const, combined])
            current = combined.result
        func.entry_block.add_ops(ops + [ReturnOp([current])])
        return module

    plain = build()
    canonical = build()
    PassManager([CanonicalizePass()]).run(canonical)
    before = Interpreter(plain).run("f", x)[0]
    after = Interpreter(canonical).run("f", x)[0]
    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Module content hashing (compile-cache keys)
# ---------------------------------------------------------------------------


def _random_stencil_module(expr) -> ModuleOp:
    shape = (5, 4, 4)
    builder = StencilKernelBuilder("rand_kernel", shape)
    u = builder.input_field("u")
    v = builder.input_field("v")
    out = builder.output_field("out")
    alpha = builder.scalar("alpha")
    builder.add_stencil(out, expr + 0.0 * (u[0, 0, 0] + v[0, 0, 0] + alpha))
    return builder.build()


@settings(max_examples=25, deadline=None)
@given(expr=expression_strategy())
def test_module_hash_is_stable_across_print_parse_roundtrip(expr):
    module = _random_stencil_module(expr)
    reparsed = parse_module(print_module(module))
    assert module_hash(reparsed) == module_hash(module)
    assert canonical_module_text(reparsed) == canonical_module_text(module)


@settings(max_examples=25, deadline=None)
@given(expr=expression_strategy())
def test_module_hash_ignores_ssa_name_hints(expr):
    module = _random_stencil_module(expr)
    baseline = module_hash(module)
    for op in module.walk():
        for result in op.results:
            result.name_hint = None
    assert module_hash(module) == baseline


@settings(max_examples=40, deadline=None)
@given(expr=expression_strategy(), data=st.data())
def test_module_hash_changes_under_any_mutation(expr, data):
    module = _random_stencil_module(expr)
    baseline = module_hash(module)
    ops = [op for op in module.walk() if op is not module]
    op = ops[data.draw(st.integers(0, len(ops) - 1), label="op index")]
    mutation = data.draw(
        st.sampled_from(["add_attr", "tweak_attr", "drop_attr"]), label="mutation"
    )
    if mutation == "tweak_attr" or mutation == "drop_attr":
        mutable = [
            name
            for name, attr in op.attributes.items()
            if mutation == "drop_attr" or isinstance(attr, (IntAttr, FloatAttr))
        ]
        if not mutable:
            mutation = "add_attr"
        else:
            name = mutable[data.draw(st.integers(0, len(mutable) - 1), label="attr")]
            if mutation == "drop_attr":
                del op.attributes[name]
            else:
                attr = op.attributes[name]
                if isinstance(attr, IntAttr):
                    op.attributes[name] = IntAttr(attr.value + 1, attr.type)
                else:
                    op.attributes[name] = FloatAttr(attr.value + 1.0, attr.type)
    if mutation == "add_attr":
        op.attributes["__mutation_probe"] = UnitAttr()
    assert module_hash(module) != baseline


@settings(max_examples=40, deadline=None)
@given(expr=expression_strategy(), data=st.data())
def test_mutated_module_hashes_like_its_clone_and_reparse(expr, data):
    """A module mutated in place hashes the same as a clone of it and as
    its print→parse round-trip.

    Hash once, mutate a random op, and compare the re-hash against
    hashing a fresh clone and a reparse: what the mutation left behind
    (use lists, parents, attribute dicts) must not leak into the hash.
    """
    module = _random_stencil_module(expr)
    module_hash(module)
    ops = [op for op in module.walk() if op is not module]
    op = ops[data.draw(st.integers(0, len(ops) - 1), label="op index")]
    mutation = data.draw(st.sampled_from(["add_attr", "erase", "hint"]), label="mutation")
    if mutation == "erase" and (op.regions or any(r.num_uses for r in op.results)):
        mutation = "add_attr"
    if mutation == "erase":
        op.erase()
    elif mutation == "add_attr":
        op.attributes["__probe"] = IntAttr(data.draw(st.integers(0, 7), label="value"))
    else:  # name hints must not participate in the hash at all
        for result in op.results:
            result.name_hint = "renamed"
    mutated = module_hash(module)
    assert mutated == module_hash(module.clone())
    assert mutated == module_hash(parse_module(print_module(module)))


def test_module_hash_distinguishes_op_order():
    def build(order):
        module = ModuleOp()
        func = FuncOp.with_body("f", [f64], [f64])
        module.add_op(func)
        a = arith.ConstantOp.from_float(1.0)
        b = arith.ConstantOp.from_float(2.0)
        first, second = (a, b) if order else (b, a)
        add = arith.AddfOp(first.result, second.result)
        func.entry_block.add_ops([a, b, add, ReturnOp([add.result])])
        return module

    assert module_hash(build(True)) != module_hash(build(False))


# ---------------------------------------------------------------------------
# Expression AST invariants
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(expr=expression_strategy())
def test_expression_queries_are_consistent(expr):
    assert expr.fields_read() <= {"u", "v"}
    assert expr.max_radius() <= 1
    assert expr.count_flops() >= 0
    assert len(expr.accesses()) >= 0


# ---------------------------------------------------------------------------
# Service request-spec canonicalisation invariants
# ---------------------------------------------------------------------------

from repro.evaluation.harness import (  # noqa: E402
    KERNEL_SIZES,
    PIPELINE_VARIANTS,
    EvaluationHarness,
    FRAMEWORKS_BY_NAME,
)
from repro.service.singleflight import SingleFlightTable  # noqa: E402
from repro.service.spec import parse_request, request_digest  # noqa: E402

#: One module-level harness so kernel modules are built/hashed once and
#: every hypothesis example after the first is cheap.
_SPEC_HARNESS = EvaluationHarness(repeats=1)


def _case_digests(spec):
    """Result-stage digests of a request's cases, in stream order."""
    return [_SPEC_HARNESS.result_key(case).digest("result") for case in spec.cases()]


@st.composite
def service_request_payloads(draw):
    """A valid request payload plus a field/list permutation of itself."""
    kernels = draw(
        st.lists(st.sampled_from(sorted(KERNEL_SIZES)), min_size=1, max_size=2, unique=True)
    )
    size_pool = sorted({s for k in kernels for s in KERNEL_SIZES[k]})
    sizes = draw(st.lists(st.sampled_from(size_pool), min_size=1, max_size=2, unique=True))
    frameworks = draw(
        st.lists(st.sampled_from(sorted(FRAMEWORKS_BY_NAME)), max_size=3, unique=True)
    )
    variants = draw(
        st.lists(st.sampled_from(sorted(PIPELINE_VARIANTS)), max_size=2, unique=True)
    )
    if any(v != "default" for v in variants) and frameworks and (
        "Stencil-HMLS" not in frameworks
    ):
        frameworks.append("Stencil-HMLS")

    def payload():
        fields = {}
        # Each list field independently: permuted order, duplicated
        # entries, and a singular alias when it holds one value.
        for singular, plural, values in (
            ("kernel", "kernels", kernels),
            ("size", "sizes", sizes),
            ("framework", "frameworks", frameworks),
            ("variant", "variants", variants),
        ):
            if not values:
                continue
            shuffled = draw(st.permutations(values))
            if draw(st.booleans()):
                shuffled = shuffled + [draw(st.sampled_from(values))]
            if len(shuffled) == 1 and draw(st.booleans()):
                fields[singular] = shuffled[0]
            else:
                fields[plural] = shuffled
        # JSON object key order is also part of the permutation space.
        keys = draw(st.permutations(sorted(fields)))
        return {key: fields[key] for key in keys}

    return payload(), payload()


@settings(max_examples=25, deadline=None)
@given(payloads=service_request_payloads())
def test_request_canonicalisation_is_order_insensitive(payloads):
    """Permuting field order, list order and singular/plural spelling (plus
    duplicate list entries) never changes the parsed spec, its CacheKey
    digests or its request digest — so the single-flight table coalesces
    the permutations onto one flight."""
    first, second = payloads
    spec_a, spec_b = parse_request(first), parse_request(second)
    assert spec_a == spec_b
    keys_a, keys_b = _case_digests(spec_a), _case_digests(spec_b)
    assert keys_a == keys_b
    digest_a, digest_b = request_digest(keys_a), request_digest(keys_b)
    assert digest_a == digest_b

    # Digest equality is exactly the coalescing condition.
    table = SingleFlightTable()
    flight, leader = table.join(digest_a)
    joined, follower = table.join(digest_b)
    assert flight is joined and leader and not follower


@settings(max_examples=25, deadline=None)
@given(payloads=service_request_payloads())
def test_request_spec_round_trips_through_its_canonical_json(payloads):
    """parse(spec.as_dict()) is the identity on canonical specs — the JSON
    the server echoes back re-parses to the very same request."""
    spec = parse_request(payloads[0])
    assert parse_request(spec.as_dict()) == spec


def test_raw_pipeline_spec_brace_option_order_is_canonicalised():
    """Raw textual pipeline variants with permuted {…} options parse to
    the same spec and the same digest (describe() renders key-sorted)."""
    base = {"kernel": "pw_advection", "size": "8M"}
    a = parse_request(
        {**base, "variant": "convert-stencil-to-hls{split=0,pack=0},convert-hls-to-llvm"}
    )
    b = parse_request(
        {**base, "variant": "convert-stencil-to-hls{pack=0,split=0},convert-hls-to-llvm"}
    )
    assert a == b
    assert request_digest(_case_digests(a)) == request_digest(_case_digests(b))
