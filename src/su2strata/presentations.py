"""Finitely presented groups, words, representations, Fox calculus.

A word is kept freely reduced, as its runs: pairs (s, k) meaning s^k,
with s a signed 1-based generator index (+3 is the third generator, -3
its inverse) and k >= 1.  The text form is whitespace separated with
uppercase marking inverses: "a B c" means a b^-1 c.  Generator names
therefore must contain a lowercase letter and be pairwise distinct
case-insensitively.

Its JSON readers hold the two rules that every reader of outside JSON
uses: `_fields` for objects and `_json_float` for numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .conventions import POLISH_TOL, RELATOR_TOL
from .errors import InputError, PresentationError, ResidualError


class Word:
    """Freely reduced word in abstract generators, kept as its runs
    ((s, k), ...), meaning s^k ..., with k >= 1 and neighbouring runs
    on different generators.  `letters` expands them on demand."""

    __slots__ = ("runs",)

    def __init__(self, letters=()):
        self.runs = _word((int(s), 1) for s in letters).runs

    @property
    def letters(self) -> tuple:
        return tuple(s for s, k in self.runs for _ in range(k))

    def __mul__(self, other: "Word") -> "Word":
        return _word(self.runs + other.runs)

    def inverse(self) -> "Word":
        return _word((-s, k) for s, k in reversed(self.runs))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        if len(self.runs) == 1:
            (s, k), = self.runs
            return _word(((s, k * n),))
        # free reduction is confluent: reducing the n copies at once
        # gives the same word as n successive products
        return _word(self.runs * n)

    def __len__(self) -> int:
        return sum(k for _, k in self.runs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"<Word {self.runs}>"


def _word(runs) -> Word:
    """The freely reduced word of a sequence of runs (s, k), k >= 0: a
    run merges with, cancels or shortens the run before it on its
    generator."""
    out: list = []
    for s, k in runs:
        if s == 0:
            raise PresentationError("letter 0 is not a generator index")
        if out and abs(out[-1][0]) == abs(s):
            t, m = out.pop()
            s, k = (s, m + k) if t == s else (t, m - k) if m > k else (s, k - m)
        if k:
            out.append((s, k))
    word = Word.__new__(Word)
    word.runs = tuple(out)
    return word


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def generator(i: int) -> Word:
    """Word consisting of the single generator with 0-based index i."""
    return Word((i + 1,))


def parse_word(text: str, generators: tuple) -> Word:
    """The word of a text in the module's text form: a token is a
    generator or, if it is a generator's name.upper(), its inverse."""
    index = {name.upper(): -k - 1 for k, name in enumerate(generators)}
    index.update({name: k + 1 for k, name in enumerate(generators)})
    letters = []
    for tok in text.split():
        if tok not in index:
            raise PresentationError(f"unknown generator token {tok!r}")
        letters.append(index[tok])
    return Word(letters)


def _check_names(names) -> tuple:
    names = tuple(names)
    seen = set()
    for n in names:
        if not n or n == n.upper():
            raise PresentationError(
                f"generator name {n!r} needs a lowercase letter")
        if n.lower() in seen:
            raise PresentationError(f"generator name {n!r} repeats")
        seen.add(n.lower())
    return names


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relators: tuple
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "generators", _check_names(self.generators))
        n = len(self.generators)
        if not n:
            raise PresentationError("a presentation needs a generator")
        for r in self.relators:
            for s, _ in r.runs:
                if abs(s) > n:
                    raise PresentationError(
                        f"relator letter {s} exceeds generator count {n}")

    @property
    def num_generators(self) -> int:
        return len(self.generators)


def _surface_names(g: int):
    return tuple(f"a{i+1}" for i in range(g)) + tuple(f"b{i+1}" for i in range(g))


def _surface_relator(g: int) -> Word:
    r = Word()
    for i in range(g):
        r = r * commutator(generator(i), generator(g + i))
    return r


@functools.lru_cache(maxsize=64)   # presentations are immutable
def free_group(g: int) -> Presentation:
    if g < 1:
        raise PresentationError("free group needs g >= 1")
    return Presentation(tuple(f"x{i+1}" for i in range(g)), (), "free")


@functools.lru_cache(maxsize=64)
def surface_group(g: int) -> Presentation:
    if g < 1:
        raise PresentationError("surface group needs g >= 1")
    return Presentation(_surface_names(g), (_surface_relator(g),), "surface")


def cyclic_group(p: int) -> Presentation:
    if p < 1:
        raise PresentationError("cyclic group needs p >= 1")
    return Presentation(("a",), (generator(0) ** p,), "cyclic")


def circle_times_surface_group(g: int) -> Presentation:
    """Z x (genus-g surface group); the circle generator c is listed last."""
    if g < 1:
        raise PresentationError("needs g >= 1")
    names = _surface_names(g) + ("c",)
    c = generator(2 * g)
    relators = (_surface_relator(g),)
    relators += tuple(commutator(c, generator(i)) for i in range(2 * g))
    return Presentation(names, relators, "circle_times_surface")


class Representation:
    """SU(2) images for each generator, relators satisfied within tol.

    The images are a read-only copy of what the caller passed; a
    non-finite or non-unit image is refused.  Each relator is folded
    once, here, to its holonomy (`relator_values`, read by the gate)
    and its Fox row; no cup-product matrix is formed.  Beyond these it
    keeps, read-only, in one memo that only `kept` touches, what lone
    calls read more than once: the Ad stack, the pairing matrix, and
    per tol the full-coefficient summary and the stratum label.  Errors
    are never kept.  A chart's representations are built together
    (`_representations`) and keep read-only views of their rows of its
    stacked results; the chart passes what it computes about them as
    columns, and keeps only their rows of its Ad stack.
    """

    __slots__ = ("presentation", "images", "relator_values",
                 "relator_residual", "_jacobian", "_kept")

    def __init__(self, presentation: Presentation, images,
                 tol: float = RELATOR_TOL):
        images = _read_only(np.atleast_2d(np.array(images, dtype=float)))
        if images.shape != (presentation.num_generators, 4):
            raise PresentationError(
                f"need shape ({presentation.num_generators}, 4) images, "
                f"got {images.shape}")
        if not _unit(images):
            raise PresentationError(_NOT_UNIT)
        self._keep(presentation, images, *_relator_folds(presentation, images))
        gate_relators(self, tol)

    def _keep(self, presentation, images, relator_values, jacobian, residual):
        self.presentation = presentation
        self.images = images
        self.relator_values = relator_values
        self._jacobian = jacobian
        self.relator_residual = float(residual)
        self._kept = {}

    @classmethod
    def trivial(cls, presentation: Presentation) -> "Representation":
        n = presentation.num_generators
        images = np.tile(su2.identity(), (n, 1))
        return cls(presentation, images)

    @property
    def adjoints(self) -> np.ndarray:
        """Read-only (n, 3, 3) stack of Ad(image), one `su2.ad` each:
        5.1 µs at n = 2 and 17.3 µs at n = 8, against 10.3 and 11.4 µs
        for one stacked call, and 3% less over free groups of rank 2..8."""
        return kept(self, "adjoints", lambda: _read_only(np.array(
            [su2.ad(x) for x in self.images]).reshape(-1, 3, 3)))


def gate_relators(rep: Representation, tol: float = RELATOR_TOL):
    """The representation, if its relator residual is within tol (a
    NaN residual is not)."""
    if not rep.relator_residual <= tol:
        raise ResidualError(f"relator residual {rep.relator_residual:.3e} "
                            f"exceeds tolerance {tol:.1e}")
    return rep


_NOT_UNIT = "images must be unit quaternions"
_IDENTITY = su2.identity()


def _unit(images: np.ndarray):
    """Whether every image is a unit quaternion, for one (n, 4) image
    array or for each row of a stack; written so that a NaN norm fails
    it too."""
    return np.all(np.abs(np.sqrt(np.square(images).sum(axis=-1)) - 1.0)
                  <= 1e-9, axis=-1)


def _relator_folds(presentation: Presentation, images: np.ndarray):
    """(relator_values, Fox Jacobian, relator residual) of (n, 4) images
    or, row by row, of an (..., n, 4) stack: the relators' `_fold_words`
    and the largest distance of a holonomy from the identity."""
    values, jacobian = _fold_words(images, presentation.relators)
    residual = np.sqrt(np.square(values - _IDENTITY).sum(axis=-1)).max(
        axis=-1, initial=0.0)
    return values, jacobian, residual


def _representations(presentation: Presentation, images) -> list:
    """One representation per row of an (N, n, 4) image stack, from one
    stacked pass: the unit gate over every row, the relator folds, the
    relator gate over every row and the Ad stack, each kept as
    read-only views of its row.  The first row to fail the first gate
    that any row fails raises the error its own construction raises."""
    images = _read_only(np.array(images, dtype=float))
    n = presentation.num_generators
    if images.ndim != 3 or images.shape[1:] != (n, 4):
        raise PresentationError(
            f"need shape (N, {n}, 4) images, got {images.shape}")
    if not _unit(images).all():
        raise PresentationError(_NOT_UNIT)
    values, jacobian, residual = _relator_folds(presentation, images)
    out = []
    for i, r in enumerate(residual.tolist()):
        rep = Representation.__new__(Representation)
        rep._keep(presentation, images[i], values[i], jacobian[i], r)
        out.append(gate_relators(rep))
    for rep, adjoints in zip(out, _read_only(su2.ad(images))):
        rep._kept["adjoints"] = adjoints
    return out


def _fold_words(images: np.ndarray, words) -> tuple:
    """The holonomies (..., k, 4) and the stacked Fox rows (..., 3k, 3n)
    of k words at (n, 4) images or, row by row, at an (N, n, 4) stack,
    read-only: each word folded once, nothing kept."""
    lead, n3 = images.shape[:-2], 3 * images.shape[-2]
    q = np.zeros(lead + (len(words), 4))
    J = np.zeros(lead + (len(words), 3, n3))
    for i, w in enumerate(words):
        q[..., i, :], J[..., i, :, :] = _fold(images, w, False)
    return _read_only(q), _read_only(J.reshape(lead + (3 * len(words), n3)))


def kept(rep: Representation, key, compute):
    """rep's value for key, compute() once; errors are not kept."""
    if key not in rep._kept:
        rep._kept[key] = compute()
    return rep._kept[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def fox_fold(images: np.ndarray, word: Word):
    """(q, J, W) of a word at the images of n generators: its holonomy,
    its (3 x 3n) Fox row with u(word) = J @ ravel(u) for every cocycle,
    and its (3n x 3n) cup-product matrix: ravel(u) @ W @ ravel(v) sums
    <u(a), Ad(a) v(b)> over the word's bar 2-chain, +[p | x] at a letter
    x after prefix p and -[p x^-1 | x] at a letter x^-1.

    Fox calculus is a monoid homomorphism (Fox 1953), so the fold of a
    concatenation is `_compose` of the halves' folds, and the fold of a
    word is the left fold of `_compose` over its runs' folds.  `_fold`
    computes that left fold bit for bit in one scan over the runs.  A
    run's fold lives in its generator's 3x3 block, and a run s^k is
    folded by squaring, so a^p costs O(log p) products.
    """
    return _fold(images, word, True)


_EYE3 = np.eye(3)


def _fold(images: np.ndarray, word: Word, cup: bool):
    """`fox_fold`; without `cup` the fold is the pair (q, J) and no W is
    formed.  Over an (N, n, 4) stack of images each part gains a leading
    axis, and each row is its image array's own fold bit for bit.

    A one-run word is its run's fold, placed in its generator's block.
    A longer word is one scan: run r has the 3x3 fold (q_r, B_r, W_r)
    at generator c_r; the prefixes P_r = q_0 ... q_(r-1) come from one
    `su2.running_product`, their Ad and the inverse letters' from one
    `su2.ad`, and C_r = Ad(P_r) B_r (C_0 = B_0) from one stacked
    product.  J's block c sums the C_r on c, and at each run r on c, W's
    column block c gains W_r on its diagonal, then J_(<r)^T C_r: the
    left fold's additions in its order, less those of exact zeros.  The
    runs are taken by rank on their generator (every generator's first
    run, then its second, ...), so no step puts two runs in one block,
    and nothing larger than a few times W is formed."""
    lead, n = images.shape[:-2], images.shape[-2]
    runs = word.runs
    if len(runs) < 2:
        J = np.zeros(lead + (3, 3 * n))
        W = np.zeros(lead + (3 * n, 3 * n)) if cup else None
        if runs:
            (s, k), = runs
            j = 3 * abs(s) - 3
            q, J[..., j:j + 3], *Wr = _power(_letter_fold(images, s, cup), k)
            if cup:
                W[..., j:j + 3, j:j + 3] = Wr[0]
        else:
            q = np.zeros(lead + (4,))
            q[..., 0] = 1.0
        return (q, J, W) if cup else (q, J)
    columns, inv, signs, slots, WG, before, powers = _scan_plan(runs, n)
    R = len(runs)
    x = images.take(columns, axis=-2)
    q = x * signs
    B = np.empty(lead + (R, 3, 3))
    B[...] = _EYE3
    if cup and powers:
        WG = np.array(np.broadcast_to(WG, lead + WG.shape))
    for r, s, k, o in powers:
        q[..., r, :], B[..., r, :, :], *w = \
            _power(_letter_fold(images, s, cup), k)
        if cup:
            WG[..., o, abs(s) - 1, :, :] = w[0]
    P = su2.running_product(q)
    A = su2.ad(np.concatenate((x.take(inv, axis=-2), P[..., :-1, :]),
                              axis=-2))
    B[..., inv, :, :] = -A[..., :len(inv), :, :].mT
    C = np.zeros(lead + (R + 1, 3, 3))      # row R is the zero block
    C[..., 0, :, :] = B[..., 0, :, :]
    np.matmul(A[..., len(inv):, :, :], B[..., 1:, :, :],
              out=C[..., 1:R, :, :])
    # G[o, c]: the C of generator c's o-th run, zero at o = 0 and past
    # its last; H[o, c]: J's block c after those o runs
    G = C.take(slots, axis=-3)
    H = np.array(G)
    for o in range(1, len(slots)):
        H[..., o, :, :, :] += H[..., o - 1, :, :, :]
    J = H[..., -1, :, :, :].swapaxes(-3, -2).reshape(lead + (3, 3 * n))
    if not cup:
        return P[..., -1, :], J
    W4 = np.zeros(lead + (n, n, 3, 3))      # [c, c'] is W's block (c', c)
    diagonal = W4.reshape(lead + (n * n, 3, 3))[..., ::n + 1, :, :]
    H = H.reshape(lead + (-1, 3, 3))
    for o, index in enumerate(before):
        diagonal += WG[..., o, :, :, :]
        W4 += H.take(index, axis=-3).mT @ G[..., o + 1, :, None, :, :]
    d = len(lead)
    W = W4.transpose(*range(d), d + 1, d + 2, d, d + 3)
    return P[..., -1, :], J, W.reshape(lead + (3 * n, 3 * n))


@functools.lru_cache(maxsize=256)   # words are immutable
def _scan_plan(runs: tuple, n: int) -> tuple:
    """What `_fold`'s scan of a word on n generators needs of the word
    alone, as read-only arrays: each run's generator; the inverse
    letters (runs x^-1) and their signs on q; `slots[o, c]`, the run
    that is generator c's o-th (o >= 1), else R; `diagonals[o, c]`, the
    W_r of c's (o + 1)-th run, I at an inverse letter, else 0; and
    `before[o][c, c']`, the index into H's flat (o', c') axis of J's
    block c' just before c's (o + 1)-th run.  Last, each run of k > 1,
    as (r, s, k, o) with o its rank on its generator."""
    R = len(runs)
    columns = np.array([abs(s) - 1 for s, _ in runs])
    inverses = np.array([r for r, (s, k) in enumerate(runs)
                         if s < 0 and k == 1], dtype=int)
    signs = np.ones((R, 4))
    signs[inverses, 1:] = -1.0
    # seen[r, c]: the runs on generator c before run r
    seen = np.zeros((R + 1, n), dtype=int)
    seen[np.arange(1, R + 1), columns] = 1
    seen = np.cumsum(seen, axis=0)
    rank = seen[np.arange(R), columns]
    slots = np.full((seen[-1].max() + 1, n), R)
    slots[rank + 1, columns] = np.arange(R)
    cups = np.zeros((R + 1, 3, 3))
    cups[inverses] = _EYE3
    arrays = (columns, inverses, signs, slots, cups[slots[1:]],
              seen[slots[1:]] * n + np.arange(n))
    return (*map(_read_only, arrays), tuple(
        (r, s, k, int(rank[r])) for r, (s, k) in enumerate(runs) if k > 1))


def _letter_fold(images: np.ndarray, s: int, cup: bool):
    """3x3 fold of the one-letter word s in its generator's block:
    u(x^-1) = -Ad(x)^T u(x), and the chain -[x^-1 | x] pairs u(x) with
    itself.  W only with `cup`."""
    lead = images.shape[:-2]
    x = np.array(images[..., abs(s) - 1, :], dtype=float)
    if s > 0:
        q, B, W = x, np.zeros(lead + (3, 3)), np.zeros(lead + (3, 3))
        B[...] = _EYE3
    else:
        q, B, W = su2.inverse(x), -su2.ad(x).mT, np.zeros(lead + (3, 3))
        W[...] = _EYE3
    return (q, B, W) if cup else (q, B)


def _compose(a, b):
    """(q1, J1, W1)(q2, J2, W2)
    = (q1 q2, J1 + Ad(q1) J2, W1 + W2 + J1^T Ad(q1) J2), or the same
    without the W terms for pairs (q, J)."""
    q1, J1, q2, J2 = a[0], a[1], b[0], b[1]
    AJ2 = su2.ad(q1) @ J2
    if len(a) == 2:
        return su2.multiply(q1, q2), J1 + AJ2
    return (su2.multiply(q1, q2), J1 + AJ2,
            a[2] + b[2] + J1.mT @ AJ2)


def _power(t, k: int):
    """t composed with itself k >= 1 times: t^k = (t t)^(k // 2) t^(k % 2)."""
    if k == 1:
        return t
    half = _power(_compose(t, t), k // 2)
    return _compose(half, t) if k % 2 else half


def evaluate_images(images: np.ndarray, word: Word) -> np.ndarray:
    return _fold(images, word, False)[0]


def relator_residual(presentation: Presentation, images: np.ndarray) -> float:
    return Representation(presentation, images, tol=np.inf).relator_residual


def fox_jacobian_at(rep: Representation) -> np.ndarray:
    """Relator differential as a read-only (3m x 3n) block matrix: row
    block r is the Fox row of relator r, folded when the representation
    was made.  Its kernel is the Zariski tangent space of the
    representation variety."""
    return rep._jacobian


def polish_images(presentation: Presentation, images) -> np.ndarray:
    """Gauss-Newton projection onto the relator-satisfying set: the
    images of `polish`'s representation."""
    return np.array(polish(presentation, images).images)


_POLISH_STEPS = 60


def polish(presentation: Presentation, images) -> Representation:
    """Gauss-Newton projection onto the relator-satisfying set.

    Flows images by exp(u_j) * x_j where u solves the Fox-Jacobian
    least-squares system against the relator logarithms, for at most
    _POLISH_STEPS steps.  Backtracks when a step does not decrease the
    residual.  Each candidate's residual, relator logarithms and
    Jacobian come from one fold.  The last candidate is returned if its
    residual is within POLISH_TOL; otherwise, a NaN residual included,
    polish raises ResidualError.
    """
    rep = Representation(presentation, images, tol=np.inf)
    for _ in range(_POLISH_STEPS):
        if rep.relator_residual <= POLISH_TOL:
            break
        F = np.concatenate([su2.log(q) for q in rep.relator_values])
        u, *_ = np.linalg.lstsq(fox_jacobian_at(rep), -F, rcond=None)
        step = 1.0
        for _ in range(25):
            cand = Representation(presentation, su2.multiply(
                su2.exp((step * u).reshape(-1, 3)), rep.images), tol=np.inf)
            if cand.relator_residual < rep.relator_residual:
                rep = cand
                break
            step *= 0.5
        else:
            break
    if not rep.relator_residual <= POLISH_TOL:
        raise ResidualError(
            f"polish stalled at residual {rep.relator_residual:.3e}")
    return rep


# JSON forms.  Presentations: {"generators": [...], "relators": ["a b A B"],
# "kind": "surface", "genus": 1}.  Representations: {gen name: [w,x,y,z]}.

def _fields(data, what: str, allowed=(), required=(), error=InputError):
    """`data` if it is a JSON object holding all `required` fields, no
    fields beyond them and `allowed`, and schema 1 if it names one (a
    required field named "schema" is not a schema); `what` names the
    object in the `error` raised otherwise."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object")
    unknown = set(data) - set(allowed) - set(required)
    if unknown:
        raise error(f"unknown {what} fields {sorted(unknown)}")
    missing = [f for f in required if f not in data]
    if missing:
        raise error(f"{what} needs fields {missing}")
    if "schema" not in required and _json_float(data.get("schema", 1)) != 1:
        raise error("unsupported schema version")
    return data


def _json_float(value, other=math.nan) -> float:
    """A JSON number as a float, an int beyond the float range as an
    infinity of its sign; anything else, a str, a bool or None included,
    reads as `other`: the one rule for numbers read from JSON input."""
    try:
        return other if isinstance(value, (str, bool)) else float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        return other


# kind -> (its parameter's JSON field, its constructor, its generator count);
# a custom presentation has no parameter and any relators
_KINDS = {
    "free": ("genus", free_group, lambda g: g),
    "surface": ("genus", surface_group, lambda g: 2 * g),
    "cyclic": ("p", cyclic_group, lambda p: 1),
    "circle_times_surface": ("genus", circle_times_surface_group,
                             lambda g: 2 * g + 1),
    "custom": None,
}


def presentation_from_json(data: dict) -> Presentation:
    _fields(data, "presentation", ("schema", "generators", "relators", "kind",
                                   "genus", "p"), error=PresentationError)
    names, texts = data.get("generators", []), data.get("relators", [])
    for what, items in (("generators", names), ("relators", texts)):
        if not isinstance(items, list) or \
                not all(isinstance(t, str) for t in items):
            raise PresentationError(f"{what} must be a list of strings")
    names = _check_names(names)
    kind = data.get("kind", "custom")
    if kind not in _KINDS:
        raise PresentationError(f"unknown kind {kind!r}")
    rels = tuple(parse_word(t, names) for t in texts)
    if kind == "custom":
        return Presentation(names, rels)
    field, build, count = _KINDS[kind]
    param = data.get(field, 0)
    if type(param) is not int:
        raise PresentationError(f"{field} must be an integer, got {param!r}")
    pres = Presentation(names, rels, kind)
    # relators of a named kind must be the canonical ones (names are
    # free, structure is not); the generator count the parameter
    # implies is checked first, so no canonical presentation is built
    # for a parameter the generators do not match
    if len(names) != count(param) or rels != build(param).relators:
        raise PresentationError(f"relators do not match the {kind} structure")
    return pres


def representation_from_json(data: dict, pres: Presentation,
                             tol: float = RELATOR_TOL) -> Representation:
    _fields(data, "representation", ("schema",), pres.generators,
            error=PresentationError)
    images = []
    for name in pres.generators:
        image = data[name]
        if not isinstance(image, list) or len(image) != 4:
            raise PresentationError(f"image of {name!r} must be [w,x,y,z]")
        images.append([_json_float(v) for v in image])
        if not all(map(math.isfinite, images[-1])):
            raise PresentationError(
                f"image of {name!r} must hold finite numbers")
    return Representation(pres, np.array(images), tol=tol)
