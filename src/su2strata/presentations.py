"""Finitely presented groups, words, representations, Fox calculus.

Words are tuples of signed 1-based generator indices (+3 is the third
generator, -3 its inverse) and are kept freely reduced.  The text form
is whitespace separated with uppercase marking inverses: "a B c" means
a b^-1 c.  Generator names therefore must contain a lowercase letter
and be pairwise distinct case-insensitively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import su2
from .conventions import RELATOR_TOL
from .errors import PresentationError, ResidualError


class Word:
    """Freely reduced word in abstract generators."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _reduce(tuple(int(s) for s in letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-s for s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        # free reduction is confluent: reducing the n copies at once
        # gives the same word as n successive products
        return Word(self.letters * n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.letters})"


def _reduce(letters: tuple) -> tuple:
    out: list[int] = []
    for s in letters:
        if s == 0:
            raise PresentationError("letter 0 is not a generator index")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


EMPTY = Word()


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def generator(i: int) -> Word:
    """Word consisting of the single generator with 0-based index i."""
    return Word((i + 1,))


def parse_word(text: str, generators: tuple) -> Word:
    lower = {name: k + 1 for k, name in enumerate(generators)}
    letters = []
    for tok in text.split():
        if tok in lower:
            letters.append(lower[tok])
        elif tok.lower() in lower and tok != tok.lower():
            letters.append(-lower[tok.lower()])
        else:
            raise PresentationError(f"unknown generator token {tok!r}")
    return Word(letters)


def format_word(word: Word, generators: tuple) -> str:
    toks = []
    for s in word:
        name = generators[abs(s) - 1]
        toks.append(name if s > 0 else name.upper())
    return " ".join(toks)


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
    parameter: int = 0  # genus for free/surface kinds, p for cyclic

    def __post_init__(self):
        object.__setattr__(self, "generators", _check_names(self.generators))
        n = len(self.generators)
        for r in self.relators:
            for s in r:
                if abs(s) > n:
                    raise PresentationError(
                        f"relator letter {s} exceeds generator count {n}")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise PresentationError(f"no generator named {name!r}") from None

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)


def _surface_names(g: int):
    return tuple(f"a{i+1}" for i in range(g)) + tuple(f"b{i+1}" for i in range(g))


def _surface_relator(g: int) -> Word:
    r = Word()
    for i in range(g):
        r = r * commutator(generator(i), generator(g + i))
    return r


def free_group(g: int) -> Presentation:
    if g < 1:
        raise PresentationError("free group needs g >= 1")
    return Presentation(tuple(f"x{i+1}" for i in range(g)), (), "free", g)


def surface_group(g: int) -> Presentation:
    if g < 1:
        raise PresentationError("surface group needs g >= 1")
    return Presentation(_surface_names(g), (_surface_relator(g),), "surface", g)


def cyclic_group(p: int) -> Presentation:
    if p < 1:
        raise PresentationError("cyclic group needs p >= 1")
    return Presentation(("a",), (generator(0) ** p,), "cyclic", p)


def circle_times_surface_group(g: int) -> Presentation:
    """Z x (genus-g surface group); the circle generator c is listed last."""
    if g < 1:
        raise PresentationError("needs g >= 1")
    names = _surface_names(g) + ("c",)
    c = generator(2 * g)
    relators = (_surface_relator(g),)
    relators += tuple(commutator(c, generator(i)) for i in range(2 * g))
    return Presentation(names, relators, "circle_times_surface", g)


def custom_group(generators, relator_texts) -> Presentation:
    names = _check_names(generators)
    rels = tuple(parse_word(t, names) for t in relator_texts)
    return Presentation(names, rels, "custom", 0)


class Representation:
    """SU(2) images for each generator, relators satisfied within tol.

    The images are a read-only copy of what the caller passed, so the
    stored residual and the Fox Jacobian, computed once on first use by
    `fox_jacobian_at`, stay true to them.  So do the cohomology
    summaries that `system_cohomology` keeps per coefficient basis.
    """

    __slots__ = ("presentation", "images", "relator_residual", "_jacobian",
                 "_cohomology")

    def __init__(self, presentation: Presentation, images,
                 tol: float = RELATOR_TOL):
        images = np.atleast_2d(np.array(images, dtype=float))
        images.flags.writeable = False
        if images.shape != (presentation.num_generators, 4):
            raise PresentationError(
                f"need shape ({presentation.num_generators}, 4) images, "
                f"got {images.shape}")
        norms = np.linalg.norm(images, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise PresentationError("images must be unit quaternions")
        self.presentation = presentation
        self.images = images
        self._jacobian = None
        self._cohomology = {}
        self.relator_residual = relator_residual(presentation, images)
        if self.relator_residual > tol:
            raise ResidualError(
                f"relator residual {self.relator_residual:.3e} exceeds "
                f"tolerance {tol:.1e}")

    @classmethod
    def trivial(cls, presentation: Presentation) -> "Representation":
        n = presentation.num_generators
        images = np.tile(su2.identity(), (n, 1))
        return cls(presentation, images)

    def evaluate(self, word: Word) -> np.ndarray:
        return evaluate_images(self.images, word)

    def conjugated(self, q: np.ndarray) -> "Representation":
        images = np.array([su2.conjugate(img, q) for img in self.images])
        return Representation(self.presentation, images, tol=np.inf)


def evaluate_images(images: np.ndarray, word: Word) -> np.ndarray:
    out = su2.identity()
    for s in word:
        g = images[abs(s) - 1]
        out = su2.multiply(out, g if s > 0 else su2.inverse(g))
    return out


def relator_residual(presentation: Presentation, images: np.ndarray) -> float:
    res = 0.0
    for r in presentation.relators:
        res = max(res, float(np.linalg.norm(
            evaluate_images(images, r) - su2.identity())))
    return res


@dataclass(frozen=True)
class FoxDerivative:
    """Formal sum of signed prefixes: d(word)/d(generator)."""

    terms: tuple  # of (sign, Word) pairs


def fox_derivative(word: Word, gen: int) -> FoxDerivative:
    """Left Fox derivative with respect to the 0-based generator index.

    d(uv) = du + u dv, d(x)/dx = +(empty), d(x^-1)/dx = -(x^-1).
    The number of terms equals the number of occurrences of the
    generator (inverses included).
    """
    target = gen + 1
    terms = []
    prefix = Word()
    for s in word:
        letter = Word((s,))
        if s == target:
            terms.append((1, prefix))
        elif s == -target:
            terms.append((-1, prefix * letter))
        prefix = prefix * letter
    return FoxDerivative(tuple(terms))


def fox_blocks(images: np.ndarray, word: Word) -> list:
    """Fox terms of a word at the images, one per letter.

    Each term is (0-based generator index, sign * Ad(prefix image)),
    the prefix taken before a positive letter and after an inverse one,
    so that u(prefix . letter) = u(prefix) + block @ u[index] for every
    cocycle u.  This is the one walk over relator letters that d1 and
    the surface pairing matrix both read.
    """
    out = []
    prefix_q = su2.identity()
    for s in word:
        g = abs(s) - 1
        if s > 0:
            out.append((g, su2.ad(prefix_q)))
            prefix_q = su2.multiply(prefix_q, images[g])
        else:
            prefix_q = su2.multiply(prefix_q, su2.inverse(images[g]))
            out.append((g, -su2.ad(prefix_q)))
    return out


def fox_jacobian_at(rep: Representation) -> np.ndarray:
    """Relator differential as a (3m x 3n) block matrix.

    Block (r, g) is the sum of the Fox blocks of relator r at generator
    g.  Its kernel is the Zariski tangent space of the representation
    variety.  The relators are walked on the first call only; the
    read-only result is kept on the representation.
    """
    if rep._jacobian is None:
        pres = rep.presentation
        J = np.zeros((3 * len(pres.relators), 3 * pres.num_generators))
        for ri, r in enumerate(pres.relators):
            for g, block in fox_blocks(rep.images, r):
                J[3 * ri:3 * ri + 3, 3 * g:3 * g + 3] += block
        J.flags.writeable = False
        rep._jacobian = J
    return rep._jacobian


def polish_images(presentation: Presentation, images,
                  tol: float = 1e-12, max_iter: int = 60) -> np.ndarray:
    """Gauss-Newton projection onto the relator-satisfying set.

    Flows images by exp(u_j) * x_j where u solves the Fox-Jacobian
    least-squares system against the relator logarithms.  Backtracks
    when a step does not decrease the residual.
    """
    pres = presentation
    images = np.atleast_2d(np.asarray(images, dtype=float)).copy()
    if not pres.relators:
        return images
    for _ in range(max_iter):
        res = relator_residual(pres, images)
        if res <= tol:
            return images
        rep = Representation(pres, images, tol=np.inf)
        F = np.concatenate([su2.log(rep.evaluate(r)) for r in pres.relators])
        J = fox_jacobian_at(rep)
        u, *_ = np.linalg.lstsq(J, -F, rcond=None)
        step = 1.0
        for _ in range(25):
            cand = np.array([su2.multiply(su2.exp(step * u[3*j:3*j+3]), images[j])
                             for j in range(pres.num_generators)])
            if relator_residual(pres, cand) < res:
                images = cand
                break
            step *= 0.5
        else:
            break
    if relator_residual(pres, images) > tol:
        raise ResidualError(
            f"polish stalled at residual {relator_residual(pres, images):.3e}")
    return images


# JSON forms.  Presentations: {"generators": [...], "relators": ["a b A B"],
# "kind": "surface", "genus": 1}.  Representations: {gen name: [w,x,y,z]}.

_KIND_FIELDS = {"free": "genus", "surface": "genus", "cyclic": "p",
                "circle_times_surface": "genus", "custom": None}


def presentation_to_json(pres: Presentation) -> dict:
    out = {
        "generators": list(pres.generators),
        "relators": [format_word(r, pres.generators) for r in pres.relators],
        "kind": pres.kind,
    }
    f = _KIND_FIELDS[pres.kind]
    if f:
        out[f] = pres.parameter
    return out


def presentation_from_json(data: dict) -> Presentation:
    if not isinstance(data, dict):
        raise PresentationError("presentation JSON must be an object")
    allowed = {"schema", "generators", "relators", "kind", "genus", "p"}
    unknown = set(data) - allowed
    if unknown:
        raise PresentationError(f"unknown presentation fields {sorted(unknown)}")
    if data.get("schema", 1) != 1:
        raise PresentationError("unsupported schema version")
    names = _check_names(data.get("generators", ()))
    kind = data.get("kind", "custom")
    if kind not in _KIND_FIELDS:
        raise PresentationError(f"unknown kind {kind!r}")
    rels = tuple(parse_word(t, names) for t in data.get("relators", ()))
    param = int(data.get(_KIND_FIELDS[kind], 0)) if _KIND_FIELDS[kind] else 0
    pres = Presentation(names, rels, kind, param)
    _validate_kind_structure(pres)
    return pres


def _validate_kind_structure(pres: Presentation):
    """Relators of a named kind must match the canonical ones letter
    for letter (names are free, structure is not)."""
    builders = {
        "free": free_group, "surface": surface_group, "cyclic": cyclic_group,
        "circle_times_surface": circle_times_surface_group,
    }
    if pres.kind not in builders:
        return
    canon = builders[pres.kind](pres.parameter)
    if pres.num_generators != canon.num_generators or \
            tuple(r.letters for r in pres.relators) != \
            tuple(r.letters for r in canon.relators):
        raise PresentationError(
            f"relators do not match the {pres.kind} structure")


def representation_to_json(rep: Representation) -> dict:
    return {name: [float(c) for c in img]
            for name, img in zip(rep.presentation.generators, rep.images)}


def representation_from_json(data: dict, pres: Presentation,
                             tol: float = RELATOR_TOL) -> Representation:
    if not isinstance(data, dict):
        raise PresentationError("representation JSON must be an object")
    unknown = set(data) - set(pres.generators) - {"schema"}
    if unknown:
        raise PresentationError(f"unknown representation fields {sorted(unknown)}")
    images = []
    for name in pres.generators:
        if name not in data:
            raise PresentationError(f"missing image for generator {name!r}")
        vals = data[name]
        if not isinstance(vals, list) or len(vals) != 4:
            raise PresentationError(f"image of {name!r} must be [w,x,y,z]")
        try:
            images.append([float(v) for v in vals])
        except (TypeError, ValueError):
            raise PresentationError(
                f"image of {name!r} must hold numbers") from None
    return Representation(pres, np.array(images), tol=tol)
