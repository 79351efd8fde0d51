"""Synthetic population generator for linkage evaluation.

Produces one large registry-style dataset and one small study-style dataset
whose overlap is known exactly, so linkage quality can be scored against
ground truth. Overlapping records share canonical QIDs except where a
per-field perturbation injects a realistic recording error:

    zip_code        one of the two letters replaced
    house_number    off by one
    gender          flipped
    date_of_birth   day and month swapped (or day shifted when a swap is
                    impossible)

Everything is drawn from a single seeded generator, so a fixed spec yields
byte-identical datasets.
"""

from __future__ import annotations

import datetime as dt
import math
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .model import Dataset, QuasiIdentifierSet, Record, make_dataset

_LETTERS = string.ascii_uppercase

DEFAULT_ZIP_PREFIXES = ("6211", "6221", "6226", "6229")


@dataclass(frozen=True)
class SyntheticPopulationSpec:
    n_large: int
    n_small: int
    overlap_fraction: float
    perturbation_rate: float
    age_range: tuple[int, int] = (40, 75)
    region_zip_prefixes: tuple[str, ...] = DEFAULT_ZIP_PREFIXES
    seed: int = 0
    #: reference date for the age <-> date-of-birth relation; fixed so that
    #: generation does not depend on the day the generator runs
    as_of: str = "2026-01-01"

    def validate(self) -> None:
        if self.n_large < 0 or self.n_small < 0:
            raise InvalidSpec("dataset sizes must be non-negative")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise InvalidSpec("overlap_fraction must be in [0, 1]")
        if not 0.0 <= self.perturbation_rate <= 1.0:
            raise InvalidSpec("perturbation_rate must be in [0, 1]")
        if self.n_small * self.overlap_fraction > self.n_large:
            raise InvalidSpec("overlap exceeds the large dataset")
        if self.age_range[0] > self.age_range[1] or self.age_range[0] < 0:
            raise InvalidSpec("bad age_range")
        if not self.region_zip_prefixes:
            raise InvalidSpec("region_zip_prefixes must name at least one prefix")
        for prefix in self.region_zip_prefixes:
            if len(prefix) != 4 or not prefix.isdigit():
                raise InvalidSpec(f"zip prefix {prefix!r} must be 4 digits")
        dt.date.fromisoformat(self.as_of)


@dataclass(frozen=True)
class GroundTruth:
    """True (large index, small index) counterparts, ordered by small index."""

    pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.pairs)


def _draw_dob(rng: np.random.Generator, age: int, as_of: dt.date) -> str:
    # days capped at 28 so perturbation by day shift never leaves the month
    month = int(rng.integers(1, 13))
    day = int(rng.integers(1, 29))
    year = as_of.year - age
    if (month, day) > (as_of.month, as_of.day):
        year -= 1
    return dt.date(year, month, day).isoformat()


def _draw_person(
    rng: np.random.Generator,
    age: int,
    spec: SyntheticPopulationSpec,
    as_of: dt.date,
    used: set[tuple[str, str, str, str]],
) -> QuasiIdentifierSet:
    while True:
        prefix = spec.region_zip_prefixes[int(rng.integers(0, len(spec.region_zip_prefixes)))]
        letters = "".join(_LETTERS[int(rng.integers(0, 26))] for _ in range(2))
        qid = QuasiIdentifierSet(
            zip_code=prefix + letters,
            house_number=str(int(rng.integers(1, 200))),
            gender="F" if rng.random() < 0.5 else "M",
            date_of_birth=_draw_dob(rng, age, as_of),
        )
        if qid.as_tuple() not in used:
            used.add(qid.as_tuple())
            return qid


def _perturb_zip(rng: np.random.Generator, zip_code: str) -> str:
    pos = 4 + int(rng.integers(0, 2))
    current = zip_code[pos]
    replacement = current
    while replacement == current:
        replacement = _LETTERS[int(rng.integers(0, 26))]
    return zip_code[:pos] + replacement + zip_code[pos + 1 :]


def _perturb_house(rng: np.random.Generator, house: str) -> str:
    number = int(house)
    if number <= 1:
        return "2"
    return str(number + (1 if rng.random() < 0.5 else -1))


def _perturb_gender(gender: str) -> str:
    return {"F": "M", "M": "F", "X": "F"}[gender]


def _perturb_dob(rng: np.random.Generator, dob: str) -> str:
    date = dt.date.fromisoformat(dob)
    if date.day <= 12 and date.day != date.month:
        return date.replace(month=date.day, day=date.month).isoformat()
    if date.day >= 28:
        return date.replace(day=date.day - 1).isoformat()
    if date.day <= 1:
        return date.replace(day=2).isoformat()
    return date.replace(day=date.day + (1 if rng.random() < 0.5 else -1)).isoformat()


def _perturb(rng: np.random.Generator, qid: QuasiIdentifierSet, rate: float) -> QuasiIdentifierSet:
    zip_code, house, gender, dob = qid.as_tuple()
    if rate > 0 and rng.random() < rate:
        zip_code = _perturb_zip(rng, zip_code)
    if rate > 0 and rng.random() < rate:
        house = _perturb_house(rng, house)
    if rate > 0 and rng.random() < rate:
        gender = _perturb_gender(gender)
    if rate > 0 and rng.random() < rate:
        dob = _perturb_dob(rng, dob)
    return QuasiIdentifierSet(zip_code, house, gender, dob)


def _income_for_age(rng: np.random.Generator, age: int) -> int:
    return max(0, int(round(12000 + 550 * age + rng.normal(0.0, 4000.0))))


def generate_population(
    spec: SyntheticPopulationSpec,
) -> tuple[Dataset, Dataset, GroundTruth]:
    """Generate (large dataset, small dataset, ground truth).

    The large dataset carries payload {age, income}; the small one carries
    {activity, status}. Exactly floor(overlap_fraction * n_small) small
    records have true counterparts in the large dataset.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    as_of = dt.date.fromisoformat(spec.as_of)
    used: set[tuple[str, str, str, str]] = set()

    n_overlap = math.floor(spec.overlap_fraction * spec.n_small)
    overlap_large = sorted(
        int(i) for i in rng.choice(spec.n_large, size=n_overlap, replace=False)
    ) if n_overlap else []
    overlap_set = set(overlap_large)

    lo, hi = spec.age_range
    large_rows: list[Record] = []
    for i in range(spec.n_large):
        age = int(rng.integers(lo, hi + 1)) if i in overlap_set else int(rng.integers(18, 96))
        qid = _draw_person(rng, age, spec, as_of, used)
        large_rows.append(
            Record(payload={"age": age, "income": _income_for_age(rng, age)}, qid=qid)
        )

    # scatter the overlap records across the small dataset
    positions = [int(p) for p in rng.permutation(spec.n_small)]
    overlap_positions = sorted(positions[:n_overlap])
    pair_for_position = dict(zip(overlap_positions, overlap_large))

    small_rows: list[Record] = []
    pairs: list[tuple[int, int]] = []
    for j in range(spec.n_small):
        if j in pair_for_position:
            source = large_rows[pair_for_position[j]]
            qid = _perturb(rng, source.qid, spec.perturbation_rate)
            pairs.append((pair_for_position[j], j))
        else:
            age = int(rng.integers(lo, hi + 1))
            qid = _draw_person(rng, age, spec, as_of, used)
        activity = round(float(np.clip(rng.normal(6.0, 2.0), 0.0, None)), 1)
        status = ("low", "mid", "high")[int(rng.integers(0, 3))]
        small_rows.append(Record(payload={"activity": activity, "status": status}, qid=qid))

    extracted_at = f"{spec.as_of}T00:00:00Z"
    large = make_dataset("A", (("age", "numeric"), ("income", "numeric")), large_rows,
                         "synthetic", extracted_at)
    small = make_dataset("B", (("activity", "numeric"), ("status", "categorical")), small_rows,
                         "synthetic", extracted_at)
    return large, small, GroundTruth(pairs=tuple(pairs))


def generate_vertical_demo(
    n_a: int,
    n_b: int,
    seed: int = 0,
    age_range: tuple[int, int] = (40, 75),
    region_zip_prefixes: tuple[str, ...] = DEFAULT_ZIP_PREFIXES,
    as_of: str = "2026-01-01",
) -> tuple[Dataset, Dataset, GroundTruth]:
    """Vertically split feasibility fixture: station A holds age, station B
    holds income for a subset of the same people, with identical QIDs.

    Every B record has an exact counterpart in A, so exact-mode linkage is
    expected to be total.
    """
    if n_b > n_a:
        raise InvalidSpec("n_b cannot exceed n_a")
    spec = SyntheticPopulationSpec(
        n_large=n_a,
        n_small=0,
        overlap_fraction=0.0,
        perturbation_rate=0.0,
        age_range=age_range,
        region_zip_prefixes=region_zip_prefixes,
        seed=seed,
        as_of=as_of,
    )
    spec.validate()
    rng = np.random.default_rng(seed)
    as_of_date = dt.date.fromisoformat(as_of)
    used: set[tuple[str, str, str, str]] = set()
    lo, hi = age_range

    people = []
    for _ in range(n_a):
        age = int(rng.integers(lo, hi + 1))
        qid = _draw_person(rng, age, spec, as_of_date, used)
        people.append((qid, age, _income_for_age(rng, age)))

    chosen = sorted(int(i) for i in rng.choice(n_a, size=n_b, replace=False))
    extracted_at = f"{as_of}T00:00:00Z"
    ds_a = make_dataset("A", (("age", "numeric"),),
                        [Record(payload={"age": age}, qid=qid) for qid, age, _ in people],
                        "synthetic", extracted_at)
    ds_b = make_dataset("B", (("income", "numeric"),),
                        [Record(payload={"income": people[i][2]}, qid=people[i][0])
                         for i in chosen],
                        "synthetic", extracted_at)
    truth = GroundTruth(pairs=tuple((a, b) for b, a in enumerate(chosen)))
    return ds_a, ds_b, truth
