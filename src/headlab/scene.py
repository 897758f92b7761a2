"""Analytic scene model: object catalog, prompts, conditional mixture.

A "scene" is the one ``GRID_SIZE`` x ``GRID_SIZE`` grayscale grid, shared
by every object of every catalog, on which each requested object either
appears (as a Gaussian blob at one of its candidate positions) or is dropped.
Conditioning a prompt therefore yields a finite Gaussian mixture over images:
one component per (presence pattern, position choice) combination, with
per-pixel variance ``s2`` shared by every component.  All downstream math
(scores, posteriors, attention analogues) is exact on this family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np

from .errors import UsageError

GRID_SIZE = 16
BLOB_SIGMAS = (1.0, 1.5, 2.0)
COMPONENT_STD = 0.05
MAX_TARGETS = 3  # the cap on `simulate` and `sweep-p` `--objects`

SUBJECT_IDS = ("cat", "dog", "fox", "owl", "frog",
               "crab", "deer", "mole", "swan", "toad")
THING_IDS = ("bench", "kite", "drum", "vase", "boat", "lamp")

# Candidate rows cycle through these pairs; subjects sit in the left band,
# things in the right band, so co-occurring blobs stay well separated.
_ROW_PAIRS = ((3, 8), (8, 13), (3, 13), (13, 8), (8, 3), (13, 3))
_SUBJECT_COL = 4
_THING_COL = 12


@dataclass(frozen=True)
class ObjectSpec:
    """One catalog entry: a blob shape plus where it is allowed to appear."""

    object_id: str
    sigma: float
    candidate_positions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # NaN fails every comparison here, and a template's divisor
        # 2 sigma^2 that overflows or underflows the last: it must be a
        # positive float
        if not (self.sigma > 0
                and 0 < 2.0 * self.sigma * self.sigma < np.inf):
            raise UsageError(f"blob sigma must be positive with 2 sigma^2 "
                             f"a finite positive float, got {self.sigma}")
        if not self.candidate_positions:
            raise UsageError(f"object {self.object_id!r} needs at least one position")
        for (r, c) in self.candidate_positions:
            if not (0 <= r < GRID_SIZE and 0 <= c < GRID_SIZE):
                raise UsageError(f"position {(r, c)} outside "
                                 f"{GRID_SIZE}x{GRID_SIZE} grid")

    def placed_template(self, position: tuple[int, int]) -> np.ndarray:
        """Blob evaluated on the grid with its peak (value 1) at ``position``."""
        r0, c0 = position
        rows = np.arange(GRID_SIZE, dtype=np.float64)[:, None]
        cols = np.arange(GRID_SIZE, dtype=np.float64)[None, :]
        d2 = (rows - r0) ** 2 + (cols - c0) ** 2
        # a narrow blob's quotient may overflow: exp(-inf) is its exact 0
        with np.errstate(over="ignore"):
            return np.exp(-d2 / (2.0 * self.sigma**2))

    @cached_property
    def placed_stack(self) -> np.ndarray:
        """Placed templates for every candidate position, shape (P, H, W)."""
        return np.stack([self.placed_template(p) for p in self.candidate_positions])

    @cached_property
    def _placed_energy(self) -> np.ndarray:
        """Squared L2 norm of each placed template, shape (P,)."""
        return np.einsum("pij,pij->p", self.placed_stack, self.placed_stack)

    def filter_responses(self, image: np.ndarray) -> np.ndarray:
        """Matched-filter response ``<image, g_p> / ||g_p||^2`` per position.

        A noiseless unit blob at candidate position p responds exactly 1.0 at
        that position.  A stack of images, shape ``(..., H, W)``, gives one
        response per image and position, shape ``(..., P)``.
        """
        overlaps = np.einsum("pij,...ij->...p", self.placed_stack, image)
        return overlaps / self._placed_energy


def default_catalog() -> dict[str, ObjectSpec]:
    """Built-in catalog: 10 subjects plus 6 things, two positions each.

    Blob widths cycle through ``BLOB_SIGMAS`` in catalog order so adjacent
    entries stay visually distinct.
    """
    catalog: dict[str, ObjectSpec] = {}
    ids = list(SUBJECT_IDS) + list(THING_IDS)
    for i, object_id in enumerate(ids):
        if object_id in SUBJECT_IDS:
            col = _SUBJECT_COL
            pair = _ROW_PAIRS[SUBJECT_IDS.index(object_id) % len(_ROW_PAIRS)]
        else:
            col = _THING_COL
            pair = _ROW_PAIRS[THING_IDS.index(object_id) % len(_ROW_PAIRS)]
        positions = tuple((row, col) for row in pair)
        catalog[object_id] = ObjectSpec(
            object_id=object_id,
            sigma=BLOB_SIGMAS[i % len(BLOB_SIGMAS)],
            candidate_positions=positions,
        )
    return catalog


def load_catalog(path: str) -> dict[str, ObjectSpec]:
    """Read a catalog from a plain-text table.

    One line per object: ``id sigma r1,c1 r2,c2 ...``.  Blank lines and lines
    starting with ``#`` are skipped.  Every error names ``path:line``.
    """
    catalog: dict[str, ObjectSpec] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise UsageError(f"{path}:{lineno}: expected 'id sigma pos...'")
            object_id, sigma_text = parts[0], parts[1]
            if object_id in catalog:
                raise UsageError(f"{path}:{lineno}: duplicate object id {object_id!r}")
            try:
                sigma = float(sigma_text)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad sigma {sigma_text!r}") from exc
            positions = []
            for token in parts[2:]:
                rc = token.split(",")
                if len(rc) != 2:
                    raise UsageError(f"{path}:{lineno}: bad position {token!r}")
                try:
                    positions.append((int(rc[0]), int(rc[1])))
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad position {token!r}") from exc
            try:
                catalog[object_id] = ObjectSpec(
                    object_id=object_id,
                    sigma=sigma,
                    candidate_positions=tuple(positions),
                )
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return catalog


def dump_catalog(catalog: dict[str, ObjectSpec], path: str) -> None:
    """Inverse of :func:`load_catalog` (positions as ``r,c`` tokens)."""
    lines = ["# id sigma positions...\n"]
    for spec in catalog.values():
        tokens = " ".join(f"{r},{c}" for (r, c) in spec.candidate_positions)
        lines.append(f"{spec.object_id} {spec.sigma} {tokens}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def prompt_text(targets: tuple[str, ...] | list[str]) -> str:
    """Render a target list back into the canonical prompt wording."""
    return " and ".join(f"a {t}" for t in targets)


@dataclass(frozen=True)
class SceneComponent:
    """One mixture component: a presence/position combination and its weight.

    ``position_choice[i]`` is an index into target ``i``'s candidate position
    list, or ``None`` when the object is absent.
    """

    position_choice: tuple[int | None, ...]
    weight: float


@dataclass(frozen=True)
class MixtureSpec:
    """Finite Gaussian mixture over images conditioned on one prompt.

    Components enumerate every presence pattern and every position choice of
    the present objects; weights multiply per-object faithfulness ``q_o``
    (split uniformly over candidate positions) against ``1 - q_o`` for
    absences.  The per-pixel component variance is homogeneous (``s2``).
    """

    targets: tuple[str, ...]
    objects: tuple[ObjectSpec, ...]
    s2: float
    components: tuple[SceneComponent, ...]

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])


def build_conditional_mixture(targets: tuple[str, ...] | list[str],
                              q: float,
                              catalog: dict[str, ObjectSpec],
                              s2: float = COMPONENT_STD**2) -> MixtureSpec:
    """Enumerate the conditional mixture for a target set.

    ``q`` is the faithfulness shared by every target, in (0, 1].
    Zero-weight combinations (an absence under ``q = 1``) are dropped.
    """
    targets = tuple(targets)
    if not targets:
        raise UsageError("mixture requested for an empty target set")
    if len(set(targets)) != len(targets):
        raise UsageError("duplicate target in mixture request")
    specs = []
    for t in targets:
        if t not in catalog:
            raise UsageError(f"object {t!r} not in catalog")
        specs.append(catalog[t])
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise UsageError(f"faithfulness must be in (0, 1], got {q}")
    # NaN fails the comparison, as a bank's key must never hold it, and so
    # does a variance whose double, the posterior's divisor, overflows
    if not 0 < 2.0 * s2 < np.inf:
        raise UsageError(f"component variance must be positive with a finite "
                         f"double, got {s2}")

    # Per object: None for absent, else an index into its candidate positions.
    per_object_choices = []
    for spec in specs:
        choices: list[tuple[int | None, float]] = []
        if q < 1.0:
            choices.append((None, 1.0 - q))
        share = q / len(spec.candidate_positions)
        choices.extend((j, share) for j in range(len(spec.candidate_positions)))
        per_object_choices.append(choices)

    components = []
    for combo in product(*per_object_choices):
        weight = 1.0
        for _, w in combo:
            weight *= w
        components.append(SceneComponent(
            position_choice=tuple(choice for choice, _ in combo),
            weight=weight,
        ))

    return MixtureSpec(
        targets=targets,
        objects=tuple(specs),
        s2=float(s2),
        components=tuple(components),
    )
