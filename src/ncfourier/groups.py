"""Finite group data: multiplication tables plus complete unitary irreps.

A :class:`FiniteGroupData` holds everything the Fourier layer needs about a
finite group: element count, identity index, the full multiplication table
(``mult_table[i, j]`` is the index of ``g_i g_j``) and, for each irreducible
unitary representation, the stack of matrices over all group elements.

Group data travels as checksummed JSON files (see ``docs/formats.md``).
Loading re-validates every structural invariant, so a hand-edited table or a
wrong representation matrix is rejected with a message naming the violated
invariant rather than surfacing later as a silently wrong Fourier matrix.
Four files ship with the package (Z2xZ2, S3, D4, Q8); cyclic groups are
generated on demand by :func:`cyclic_group_data`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import GroupDataError

__all__ = [
    "FiniteGroupData",
    "FORMAT_VERSION",
    "DATA_DIR_ENV",
    "validate_group_data",
    "group_to_payload",
    "group_from_payload",
    "save_group_file",
    "load_group_file",
    "cyclic_group_data",
    "builtin_group_names",
    "builtin_group",
    "available_groups",
    "resolve_group",
]

FORMAT_VERSION = 1

# extra group files are picked up from this directory when set
DATA_DIR_ENV = "NCFOURIER_DATA_DIR"

_BUILTIN_FILES = {
    "Z2xZ2": "z2xz2.json",
    "S3": "s3.json",
    "D4": "d4.json",
    "Q8": "q8.json",
}

_HOM_ATOL = 1e-10
_ORTHO_ATOL = 1e-9


@dataclass(frozen=True)
class FiniteGroupData:
    """Multiplication table and complete irreducible unitary representations."""

    name: str
    order: int
    identity: int
    mult_table: np.ndarray  # (order, order) int
    irreps: tuple[np.ndarray, ...]  # each (order, d, d) complex

    @property
    def irrep_dims(self) -> tuple[int, ...]:
        return tuple(r.shape[1] for r in self.irreps)

    def inverse(self, i: int) -> int:
        row = self.mult_table[i]
        return int(np.nonzero(row == self.identity)[0][0])


def validate_group_data(g: FiniteGroupData) -> None:
    """Check every structural invariant; raise GroupDataError naming the first failure."""
    n = g.order
    if n < 1:
        raise GroupDataError(f"group order must be positive, got {n}")
    if not 0 <= g.identity < n:
        raise GroupDataError(f"identity index {g.identity} outside 0..{n - 1}")
    m = np.asarray(g.mult_table)
    if m.shape != (n, n):
        raise GroupDataError(f"mult_table shape {m.shape}, expected {(n, n)}")
    if m.min() < 0 or m.max() >= n:
        raise GroupDataError("mult_table entries outside element range")
    e = g.identity
    if not (np.all(m[e] == np.arange(n)) and np.all(m[:, e] == np.arange(n))):
        raise GroupDataError("identity row/column of mult_table is not the identity")
    # associativity, exhaustively: (g_i g_j) g_k == g_i (g_j g_k)
    if not np.array_equal(m[m, :], m[:, m]):
        raise GroupDataError("mult_table is not associative")
    # every element needs an inverse (rows must hit the identity)
    if not np.all(np.any(m == e, axis=1)):
        raise GroupDataError("some element has no inverse in mult_table")

    if len(g.irreps) == 0:
        raise GroupDataError("group data carries no representations")
    dims = g.irrep_dims
    if sum(d * d for d in dims) != n:
        raise GroupDataError(
            f"sum of squared irrep dims {dims} is {sum(d * d for d in dims)}, "
            f"expected the group order {n}"
        )
    for t, rep in enumerate(g.irreps):
        d = dims[t]
        if rep.shape != (n, d, d):
            raise GroupDataError(f"irrep {t} has shape {rep.shape}, expected {(n, d, d)}")
        if not np.allclose(rep[e], np.eye(d), atol=_HOM_ATOL):
            raise GroupDataError(f"irrep {t} does not map the identity to I")
        ident = np.broadcast_to(np.eye(d), (n, d, d))
        if not np.allclose(rep @ rep.conj().transpose(0, 2, 1), ident, atol=_HOM_ATOL):
            raise GroupDataError(f"irrep {t} is not unitary")
        # rep[m] has shape (n, n, d, d); entry (i, j) is rep evaluated at g_i g_j
        if not np.allclose(rep[m], np.einsum("iab,jbc->ijac", rep, rep), atol=_HOM_ATOL):
            raise GroupDataError(f"irrep {t} is not a homomorphism")

    # orthogonality of matrix coefficients: rows of the coefficient matrix
    # F[(t,a,b), g] = rep_t(g)_{ab} satisfy F F* = diag(order / d_t).  This
    # pins irreducibility and pairwise inequivalence in one shot.
    coeff = np.concatenate([rep.reshape(n, -1).T for rep in g.irreps])
    gram = coeff @ coeff.conj().T
    want = np.diag(np.concatenate([np.full(d * d, n / d) for d in dims]))
    if not np.allclose(gram, want, atol=_ORTHO_ATOL * n):
        raise GroupDataError(
            "matrix coefficients fail Schur orthogonality; representations are "
            "not a complete set of pairwise inequivalent irreducibles"
        )


# -- JSON round trip ------------------------------------------------------


def group_to_payload(g: FiniteGroupData) -> dict:
    """JSON-ready dict (without checksum envelope)."""
    return {
        "name": g.name,
        "order": g.order,
        "identity": g.identity,
        "mult_table": np.asarray(g.mult_table).tolist(),
        "irreps": [
            {
                "dim": int(rep.shape[1]),
                "real": rep.real.tolist(),
                "imag": rep.imag.tolist(),
            }
            for rep in g.irreps
        ],
    }


def group_from_payload(payload: dict) -> FiniteGroupData:
    try:
        irreps = tuple(
            np.asarray(r["real"], dtype=float) + 1j * np.asarray(r["imag"], dtype=float)
            for r in payload["irreps"]
        )
        g = FiniteGroupData(
            name=str(payload["name"]),
            order=int(payload["order"]),
            identity=int(payload["identity"]),
            mult_table=np.asarray(payload["mult_table"], dtype=int),
            irreps=irreps,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupDataError(f"malformed group payload: {exc}") from exc
    return g


def _canonical_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def save_group_file(path, g: FiniteGroupData) -> None:
    """Validate, checksum and write one group to a JSON file."""
    validate_group_data(g)
    payload = group_to_payload(g)
    doc = {
        "format_version": FORMAT_VERSION,
        "sha256": hashlib.sha256(_canonical_bytes(payload)).hexdigest(),
        "group": payload,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_group_file(path) -> FiniteGroupData:
    """Read, checksum-verify and re-validate a group data file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GroupDataError(f"cannot read group file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "group" not in doc:
        raise GroupDataError(f"{path}: missing 'group' payload")
    if doc.get("format_version") != FORMAT_VERSION:
        raise GroupDataError(
            f"{path}: format_version {doc.get('format_version')!r}, "
            f"this reader understands {FORMAT_VERSION}"
        )
    payload = doc["group"]
    digest = hashlib.sha256(_canonical_bytes(payload)).hexdigest()
    if digest != doc.get("sha256"):
        raise GroupDataError(
            f"{path}: checksum mismatch (file says {doc.get('sha256')!r}, "
            f"payload hashes to {digest!r}); refusing corrupted data"
        )
    g = group_from_payload(payload)
    validate_group_data(g)
    return g


# -- built-in instances ----------------------------------------------------


def cyclic_group_data(n: int, name: str | None = None) -> FiniteGroupData:
    """Z_n with its n characters chi_k(g) = exp(2 pi i k g / n)."""
    if n < 1:
        raise GroupDataError(f"cyclic order must be positive, got {n}")
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    irreps = tuple(
        np.exp(2j * np.pi * k * idx / n).reshape(n, 1, 1) for k in range(n)
    )
    return FiniteGroupData(
        name=name or f"Z{n}",
        order=n,
        identity=0,
        mult_table=mult,
        irreps=irreps,
    )


def builtin_group_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_FILES)


def builtin_group(name: str) -> FiniteGroupData:
    """Load one of the shipped group data files by catalog name."""
    if name not in _BUILTIN_FILES:
        raise GroupDataError(
            f"no built-in group {name!r}; available: {sorted(_BUILTIN_FILES)}"
        )
    path = resources.files("ncfourier").joinpath("data", _BUILTIN_FILES[name])
    with resources.as_file(path) as p:
        return load_group_file(p)


def available_groups(extra_dir: str | os.PathLike | None = None) -> dict[str, str]:
    """Catalog name -> source path of built-in plus user-directory groups.

    ``extra_dir`` defaults to the NCFOURIER_DATA_DIR environment variable;
    files there named ``<name>.json`` are listed under ``<name>`` and shadow
    nothing (built-ins keep their names).
    """
    out = {}
    for name, fname in _BUILTIN_FILES.items():
        out[name] = f"builtin:{fname}"
    if extra_dir is None:
        extra_dir = os.environ.get(DATA_DIR_ENV)
    if extra_dir:
        d = Path(extra_dir)
        if d.is_dir():
            for p in sorted(d.glob("*.json")):
                out.setdefault(p.stem, str(p))
    return out


def resolve_group(name: str, extra_dir: str | os.PathLike | None = None) -> FiniteGroupData:
    """Find a group by catalog name (:func:`available_groups`): built-ins first, then the data
    directory.  Only listed names resolve; :func:`load_group_file` loads a path."""
    if name in _BUILTIN_FILES:
        return builtin_group(name)
    source = available_groups(extra_dir).get(name)
    if source is not None:
        return load_group_file(source)
    raise GroupDataError(
        f"unknown group {name!r}; built-ins are {sorted(_BUILTIN_FILES)} and no "
        f"file {name}.json was found in the data directory"
    )
