"""Time the kernels of one Boyd step of the estimator, per call, on brute force's batches.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/kernel_times.py

For the maps of brute force on Z4 and M2 (a multiplier and a Schur map, held
as their dense matrices) and a multiplier on the dual of S3 (blocks 1, 1, 2
of unequal weights), it prints microseconds per call of
``_BlockOps.spectrum`` (with vectors) and ``direction`` on the codomain,
``rows`` and ``adjoint_rows`` of the map's dense ``LinearMap`` (its matrix
and weighted adjoint, one row product each; in the columns "apply" and
"adjoint"), and one step of ``_ascent``: the time of ``_ascent`` over 11
steps less that over 1, divided by 10.  Each map is
timed on the batch brute force runs it in, ``_BATCH_BYTES // (16 (D_dom +
D_cod))`` rows: 4096 for Z4 and M2 and 2730 for S3's dual.  Each figure is
the minimum over ``REPEAT`` CPU timings of a loop of calls; a call that
may overwrite its input gets a copy made before the timing.  The kernels
are timed as brute force runs them after its first call (see the comment in
``main``).  The first line gives the numpy version, the BLAS build and its
thread count.

A second table times one half-step of the ascent, ``_BlockOps.duality``, at
r = 2, 3 and 4, against the spectrum path it replaces where its blocks have
closed forms (``spectrum`` with vectors, ``powers``, the power sum and
``direction``), on rows of the codomains of Z4 (four 1x1 blocks), M2 (one
2x2 block), S3 (its dual: blocks 1, 1 and 2) and M16 (one 16x16 block, whose
r = 3 takes the spectrum path either way), in batches of the same size.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ncfourier.algebra import random_element
from ncfourier.campaign import resolve_instance
from ncfourier.estimator import _BATCH_BYTES, _ascent, _complex_normals
from ncfourier.fourier import multiplier_map
from ncfourier.linmap import LinearMap
from ncfourier.lorentz import _block_ops
from ncfourier.schur import schur_map

# (name, p, q): the oracle's maps and one with a noncommutative domain of unequal weights
CASES = (("Z4", 4.0 / 3.0, 4.0), ("M2", 1.5, 3.0), ("S3", 4.0 / 3.0, 4.0))
# the codomains of the half-step table, and its exponents
HALF_STEP_MAPS = ("Z4", "M2", "S3", "M16")
HALF_STEP_R = (2.0, 3.0, 4.0)
REPEAT = 7  # CPU timings per figure; the minimum is printed


def _map(name: str):
    rng = np.random.default_rng(7)
    if name.startswith("M"):
        n = int(name[1:])
        return schur_map(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    pair = resolve_instance(name)
    return multiplier_map(pair, random_element(pair.source, 7))


def _blas() -> str:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"{config.get('name')} {config.get('version')} ({config.get('openblas configuration')}), OPENBLAS_NUM_THREADS={threads}"


def _per_call_us(fn, number: int, fresh=None) -> float:
    """Minimum over ``REPEAT`` CPU timings of ``number`` calls, in microseconds per call.  With
    ``fresh``, each call takes its own copy of it, made before the timing."""
    best = np.inf
    for _ in range(REPEAT):
        args = [(fresh.copy(),) if fresh is not None else () for _ in range(number)]
        t0 = time.process_time()
        for a in args:
            fn(*a)
        best = min(best, time.process_time() - t0)
    return 1e6 * best / number


def kernel_times(name: str, p: float, q: float) -> dict:
    """Microseconds per call of each kernel of one step on a brute-force batch of the map ``name``."""
    m = _map(name)
    rows = _BATCH_BYTES // (16 * (m.domain.complex_dim + m.codomain.complex_dim))
    maps = LinearMap(m.domain, m.codomain, m.matrix)
    dom_ops, cod_ops = _block_ops(m.domain), _block_ops(m.codomain)
    z = _complex_normals(np.random.default_rng(1), (rows, m.domain.complex_dim))
    mz = maps.rows(z)
    sv, data = cod_ops.spectrum(mz, vectors=True)
    g = cod_ops.powers(sv, q)

    def ascent(steps):
        return lambda start: _ascent(maps, None, dom_ops, p, q, start, steps)

    number = 20
    out = {
        "spectrum": _per_call_us(lambda: cod_ops.spectrum(mz, vectors=True), number),
        "direction": _per_call_us(lambda: cod_ops.direction(mz, g, data), number),
        "apply": _per_call_us(lambda: maps.rows(z), number),
        # an adjoint may overwrite its input, and the ascent does
        "adjoint": _per_call_us(maps.adjoint_rows, number, fresh=mz),
    }
    one, eleven = (_per_call_us(ascent(steps), 2, fresh=z) for steps in (1, 11))
    out["ascent step"] = (eleven - one) / 10.0
    return out


def half_step_times(name: str) -> dict:
    """Microseconds per call of one half-step on rows of the codomain of the map ``name``: for each r
    of ``HALF_STEP_R``, ``duality`` (closed forms where they exist) and the spectrum path."""
    m = _map(name)
    ops = _block_ops(m.codomain)
    rows = _BATCH_BYTES // (16 * (m.domain.complex_dim + m.codomain.complex_dim))
    y = _complex_normals(np.random.default_rng(2), (rows, m.codomain.complex_dim))

    def spectrum_path(r):
        sv, data = ops.spectrum(y, vectors=True)
        g = ops.powers(sv, r)
        total = np.einsum("ij,j->i", sv * g, ops.wts)
        return total, ops.direction(y, g / total[:, None], data)

    out = {}
    for r in HALF_STEP_R:
        out[f"r={r:g} closed"] = _per_call_us(lambda: ops.duality(y, r, lambda total: 1.0 / total), 20)
        out[f"r={r:g} spectrum"] = _per_call_us(lambda: spectrum_path(r), 20)
    return out


def _table(rows: dict) -> None:
    """Print ``{label: {column: microseconds}}`` as a table, one row per label."""
    columns = next(iter(rows.values()))
    print(f"{'map':<14}" + "".join(f"{k:>14}" for k in columns))
    for label, times in rows.items():
        print(f"{label:<14}" + "".join(f"{v:>14.1f}" for v in times.values()))


def main() -> None:
    # glibc serves large blocks by mmap until one is freed, which raises its mmap and trim
    # thresholds; brute force's 6.4 MB sample array does that, so that its batch temporaries
    # come from the heap and do not fault in fresh pages on every call.  Freeing one 8 MB
    # array here times the kernels in that state.
    np.ones(1 << 19, dtype=complex)
    print(f"numpy {np.__version__}; BLAS {_blas()}; us per call")
    _table({f"{name} ({p:.3g},{q:.3g})": kernel_times(name, p, q) for name, p, q in CASES})
    print("one half-step, duality against the spectrum path")
    _table({name: half_step_times(name) for name in HALF_STEP_MAPS})


if __name__ == "__main__":
    main()
