"""Canonical compile-request specs for the service front door.

A client POSTs a JSON object naming what to evaluate::

    {"kernel": "pw_advection", "sizes": ["8M"],
     "frameworks": ["Stencil-HMLS"], "variants": ["staged", "depth-8"],
     "device": "Alveo U280", "repeats": 1}

:func:`parse_request` validates and *canonicalises* it into a frozen
:class:`RequestSpec`: singular/plural field spellings collapse
(``size``/``sizes``), lists are deduplicated and reordered into the
registry order of the harness tables, raw pipeline specs are
canonicalised through
:func:`~repro.ir.pass_registry.canonical_pipeline_spec` (so option order
inside ``{…}`` braces cannot matter), and unknown fields are rejected.

The spec's content address (:func:`request_digest`) is computed from the
*result-stage cache-key digests* of the expanded cases — each of which
already embeds the module fingerprint, the canonicalised pipeline spec,
the framework, the device and the repeat count.  Two requests that could
reuse each other's work therefore hash identically no matter how their
JSON was spelled, which is exactly the key the single-flight table
coalesces on and the key the cache answers warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.baselines import ALL_FRAMEWORKS
from repro.evaluation.harness import (
    FRAMEWORKS_BY_NAME,
    KERNEL_SIZES,
    PIPELINE_VARIANTS,
    BenchmarkCase,
    expand_matrix_slots,
)
from repro.fpga.device import ALVEO_U280, device_by_name
from repro.ir.hashing import fingerprint_text
from repro.ir.pass_registry import PipelineParseError, canonical_pipeline_spec


class RequestSpecError(ValueError):
    """A malformed or unsatisfiable request (the server answers 400)."""


#: Fields a request JSON object may carry (singular forms are aliases).
_KNOWN_FIELDS = {
    "kernel", "kernels", "size", "sizes", "framework", "frameworks",
    "variant", "variants", "device", "repeats",
}


@dataclass(frozen=True)
class RequestSpec:
    """One canonicalised compile request (a mini scenario matrix).

    Instances are only built by :func:`parse_request`; the field tuples
    are already validated, deduplicated and canonically ordered, so two
    specs describing the same work compare (and hash) equal.
    """

    kernels: tuple[str, ...]
    sizes: tuple[str, ...]
    frameworks: tuple[str, ...]
    variants: tuple[str, ...]
    device: str = ALVEO_U280.name
    repeats: int = 1

    def cases(self) -> list[BenchmarkCase]:
        """The fully-pinned benchmark cases this request expands to, in
        deterministic case-major order (the stream order)."""
        expanded = [
            BenchmarkCase(kernel, KERNEL_SIZES[kernel][size], None, variant)
            for kernel in self.kernels
            for size in self.sizes
            if size in KERNEL_SIZES[kernel]
            for variant in self.variants
        ]
        return [
            BenchmarkCase(case.kernel, case.size, name, case.variant)
            for case, name in expand_matrix_slots(expanded, list(self.frameworks))
        ]

    def as_dict(self) -> dict[str, Any]:
        """The canonical JSON form (what the server echoes back)."""
        return {
            "kernels": list(self.kernels),
            "sizes": list(self.sizes),
            "frameworks": list(self.frameworks),
            "variants": list(self.variants),
            "device": self.device,
            "repeats": self.repeats,
        }


def _listify(payload: dict[str, Any], singular: str, plural: str) -> list[Any]:
    """Collect ``singular``/``plural`` spellings into one list."""
    if singular in payload and plural in payload:
        raise RequestSpecError(f"give either '{singular}' or '{plural}', not both")
    value = payload.get(plural, payload.get(singular))
    if value is None:
        return []
    if isinstance(value, (str, int, float)):
        return [value]
    if isinstance(value, list):
        return list(value)
    raise RequestSpecError(f"'{plural}' must be a string or a list of strings")


def _ordered_unique(values: Sequence[str], order: Sequence[str]) -> tuple[str, ...]:
    """Dedup ``values`` and reorder them into registry ``order`` — the
    canonicalisation that makes list permutations irrelevant."""
    chosen = set(values)
    return tuple(entry for entry in order if entry in chosen)


def parse_request(payload: Any) -> RequestSpec:
    """Validate + canonicalise one request JSON object.

    Raises :class:`RequestSpecError` with a client-presentable message on
    anything malformed: unknown fields, kernels, sizes, frameworks,
    variants or devices, unparsable raw pipeline specs, bad repeats.

    >>> spec = parse_request({"kernel": "pw_advection", "size": "8M"})
    >>> spec.kernels, spec.sizes, spec.frameworks
    (('pw_advection',), ('8M',), ('Stencil-HMLS',))
    >>> parse_request({"kernel": "pw_advection", "size": "8M",
    ...                "variants": ["depth-8", "staged"]}) == parse_request(
    ...     {"size": "8M", "kernel": "pw_advection",
    ...      "variants": ["staged", "depth-8", "staged"]})
    True
    """
    if not isinstance(payload, dict):
        raise RequestSpecError("request body must be a JSON object")
    unknown = set(payload) - _KNOWN_FIELDS
    if unknown:
        raise RequestSpecError(
            f"unknown request field(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_KNOWN_FIELDS))})"
        )

    kernels = [str(k) for k in _listify(payload, "kernel", "kernels")]
    if not kernels:
        raise RequestSpecError("request needs a 'kernel' (or 'kernels') field")
    for kernel in kernels:
        if kernel not in KERNEL_SIZES:
            raise RequestSpecError(
                f"unknown kernel '{kernel}' (known: {', '.join(KERNEL_SIZES)})"
            )
    kernels = _ordered_unique(kernels, list(KERNEL_SIZES))

    sizes = [str(s) for s in _listify(payload, "size", "sizes")]
    if not sizes:
        raise RequestSpecError("request needs a 'size' (or 'sizes') field")
    #: Size labels shared by table order of the *first* kernel that knows
    #: them; each must be known to at least one requested kernel.
    size_order: list[str] = []
    for kernel in kernels:
        for label in KERNEL_SIZES[kernel]:
            if label not in size_order:
                size_order.append(label)
    for size in sizes:
        if size not in size_order:
            raise RequestSpecError(
                f"unknown problem size '{size}' for kernel(s) "
                f"{', '.join(kernels)} (known: {', '.join(size_order)})"
            )
    sizes = _ordered_unique(sizes, size_order)

    frameworks = [str(f) for f in _listify(payload, "framework", "frameworks")]
    if not frameworks:
        frameworks = ["Stencil-HMLS"]
    for name in frameworks:
        if name not in FRAMEWORKS_BY_NAME:
            raise RequestSpecError(
                f"unknown framework '{name}' "
                f"(known: {', '.join(FRAMEWORKS_BY_NAME)})"
            )
    frameworks = _ordered_unique(frameworks, [cls.name for cls in ALL_FRAMEWORKS])

    raw_variants = [str(v) for v in _listify(payload, "variant", "variants")]
    if not raw_variants:
        raw_variants = ["default"]
    variants: list[str] = []
    for variant in raw_variants:
        if variant in PIPELINE_VARIANTS:
            variants.append(variant)
            continue
        # A raw textual pipeline spec: canonicalise it so option spelling
        # and ordering inside {…} cannot produce distinct requests.
        try:
            variants.append(canonical_pipeline_spec(variant))
        except (PipelineParseError, KeyError, ValueError) as err:
            raise RequestSpecError(
                f"unknown variant or unparsable pipeline spec {variant!r}: {err}"
            ) from err
    named = [v for v in PIPELINE_VARIANTS if v in set(variants)]
    raw = sorted(set(variants) - set(PIPELINE_VARIANTS))
    variants = tuple(named + raw)
    if any(v != "default" for v in variants) and "Stencil-HMLS" not in frameworks:
        raise RequestSpecError(
            "non-default pipeline variants need the Stencil-HMLS framework"
        )

    device = str(payload.get("device", ALVEO_U280.name))
    try:
        device = device_by_name(device).name  # canonical capitalisation
    except KeyError as err:
        raise RequestSpecError(err.args[0]) from err

    repeats = payload.get("repeats", 1)
    if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
        raise RequestSpecError(f"'repeats' must be a positive integer, got {repeats!r}")

    spec = RequestSpec(
        kernels=kernels,
        sizes=sizes,
        frameworks=frameworks,
        variants=variants,
        device=device,
        repeats=repeats,
    )
    if not spec.cases():
        raise RequestSpecError(
            "request expands to zero cases (no requested size is defined "
            "for any requested kernel)"
        )
    return spec


def request_digest(case_digests: Iterable[str]) -> str:
    """Content address of one request: a fingerprint over the *sorted*
    result-stage cache-key digests of its expanded cases.

    Each per-case digest embeds the module fingerprint, the canonicalised
    pipeline spec of the variant, the framework, the device and the
    repeat count — so digest equality means "the same compiled artefacts
    answer both requests", which is the exact condition under which the
    single-flight table may coalesce them.

    >>> request_digest(["b", "a"]) == request_digest(["a", "b"])
    True
    """
    return fingerprint_text("\x1f".join(sorted(case_digests)))
