"""The FaaSdom micro-benchmarks (Table 2, §5.2), in Node.js and Python.

Four benchmarks, each with real handler source (what the annotator
transforms) and an op-level program (what the runtime executes):

* ``faas-fact``        — integer factorization (compute-intensive);
* ``faas-matrix-mult`` — large matrix multiplication (compute-intensive,
  highly vectorizable — hence the larger Numba speedup, up to 80x in
  Fig 7(b));
* ``faas-diskio``      — 10 KB file reads and writes, 100 times each
  (§5.2.1(2));
* ``faas-netlatency``  — respond immediately with a 79-byte body and
  ~500-byte header (§5.2.1(3)).

Compute unit counts are per-language: FaaSdom sizes inputs per runtime, and
the abstract "unit" is work the interpreter executes per bytecode dispatch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import PlatformError
from repro.runtime.interpreter import AppCode, GuestFunction
from repro.runtime.ops import (Compute, DiskRead, DiskWrite, Program,
                               Respond, program)
from repro.workloads.base import FunctionSpec

LANGUAGES = ("nodejs", "python")

# ---------------------------------------------------------------------------
# Handler sources (annotator input)
# ---------------------------------------------------------------------------
_FACT_PY = '''\
def main(params):
    n = int(params.get("n", 1000003))
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return {"factors": factors}
'''

_FACT_JS = '''\
function main(params) {
    let n = params.n || 1000003;
    const factors = [];
    for (let d = 2; d * d <= n; d++) {
        while (n % d === 0) { factors.push(d); n = Math.floor(n / d); }
    }
    if (n > 1) factors.push(n);
    return { factors: factors };
}
'''

_MATMUL_PY = '''\
def matmul(a, b, n):
    c = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            for j in range(n):
                c[i][j] += aik * b[k][j]
    return c

def main(params):
    n = int(params.get("n", 128))
    a = [[float(i + j) for j in range(n)] for i in range(n)]
    b = [[float(i - j) for j in range(n)] for i in range(n)]
    return {"trace": sum(matmul(a, b, n)[i][i] for i in range(n))}
'''

_MATMUL_JS = '''\
function matmul(a, b, n) {
    const c = [];
    for (let i = 0; i < n; i++) {
        c.push(new Float64Array(n));
        for (let k = 0; k < n; k++) {
            const aik = a[i][k];
            for (let j = 0; j < n; j++) c[i][j] += aik * b[k][j];
        }
    }
    return c;
}

function main(params) {
    const n = params.n || 128;
    const a = [], b = [];
    for (let i = 0; i < n; i++) {
        a.push(Float64Array.from({length: n}, (_, j) => i + j));
        b.push(Float64Array.from({length: n}, (_, j) => i - j));
    }
    const c = matmul(a, b, n);
    let trace = 0;
    for (let i = 0; i < n; i++) trace += c[i][i];
    return { trace: trace };
}
'''

_DISKIO_PY = '''\
def main(params):
    rounds = int(params.get("rounds", 100))
    payload = b"x" * 10240
    total = 0
    for i in range(rounds):
        with open("/tmp/faas-diskio.bin", "wb") as f:
            f.write(payload)
        with open("/tmp/faas-diskio.bin", "rb") as f:
            total += len(f.read())
    return {"bytes": total}
'''

_DISKIO_JS = '''\
const fs = require('fs');

function main(params) {
    const rounds = params.rounds || 100;
    const payload = Buffer.alloc(10240, 'x');
    let total = 0;
    for (let i = 0; i < rounds; i++) {
        fs.writeFileSync('/tmp/faas-diskio.bin', payload);
        total += fs.readFileSync('/tmp/faas-diskio.bin').length;
    }
    return { bytes: total };
}
'''

_NETLATENCY_PY = '''\
def main(params):
    return {"statusCode": 200, "body": "x" * 79}
'''

_NETLATENCY_JS = '''\
function main(params) {
    return { statusCode: 200, body: 'x'.repeat(79) };
}
'''

# -- extras: FaaSdom members the paper's figures do not use ------------------
_GZIP_PY = '''\
import zlib

def main(params):
    level = int(params.get("level", 6))
    payload = (params.get("text", "serverless") * 2048).encode("utf-8")
    compressed = zlib.compress(payload, level)
    return {"in": len(payload), "out": len(compressed)}
'''

_GZIP_JS = '''\
const zlib = require('zlib');

function main(params) {
    const payload = Buffer.from((params.text || 'serverless').repeat(2048));
    const compressed = zlib.gzipSync(payload, { level: params.level || 6 });
    return { in: payload.length, out: compressed.length };
}
'''

_IMAGE_RESIZE_PY = '''\
def main(params):
    w = int(params.get("w", 512))
    h = int(params.get("h", 512))
    # nearest-neighbour downscale of a synthetic image to w/2 x h/2
    image = [[(x * 31 + y * 17) % 256 for x in range(w)] for y in range(h)]
    small = [[image[y * 2][x * 2] for x in range(w // 2)]
             for y in range(h // 2)]
    return {"pixels": len(small) * len(small[0])}
'''

_IMAGE_RESIZE_JS = '''\
function main(params) {
    const w = params.w || 512, h = params.h || 512;
    const image = new Uint8Array(w * h);
    for (let i = 0; i < w * h; i++) image[i] = (i * 31) % 256;
    const small = new Uint8Array((w / 2) * (h / 2));
    for (let y = 0; y < h / 2; y++)
        for (let x = 0; x < w / 2; x++)
            small[y * (w / 2) + x] = image[(y * 2) * w + x * 2];
    return { pixels: small.length };
}
'''


# ---------------------------------------------------------------------------
# Workload shapes (compute units / JIT speedups per language)
# ---------------------------------------------------------------------------
# name -> language -> (compute_units, jit_speedup, code_units)
_SHAPES: Dict[str, Dict[str, Tuple[float, float, float]]] = {
    "faas-fact": {
        "nodejs": (27000.0, 3.0, 500.0),
        "python": (8000.0, 20.0, 500.0),     # Fig 7(a): 20x Numba speedup
    },
    "faas-matrix-mult": {
        "nodejs": (36000.0, 3.2, 700.0),
        "python": (10240.0, 80.0, 700.0),    # Fig 7(b): up to 80x (vector)
    },
    "faas-diskio": {
        "nodejs": (300.0, 3.0, 400.0),
        "python": (150.0, 6.0, 400.0),
    },
    "faas-netlatency": {
        "nodejs": (120.0, 3.0, 200.0),
        "python": (40.0, 6.0, 200.0),
    },
    # Extras — FaaSdom members the paper's figures do not include.
    "faas-gzip": {
        "nodejs": (14000.0, 2.2, 600.0),   # zlib is mostly native already
        "python": (5200.0, 8.0, 600.0),
    },
    "faas-image-resize": {
        "nodejs": (22000.0, 3.4, 650.0),
        "python": (7600.0, 45.0, 650.0),   # pixel loops vectorize well
    },
}

_SOURCES: Dict[str, Dict[str, str]] = {
    "faas-fact": {"nodejs": _FACT_JS, "python": _FACT_PY},
    "faas-matrix-mult": {"nodejs": _MATMUL_JS, "python": _MATMUL_PY},
    "faas-diskio": {"nodejs": _DISKIO_JS, "python": _DISKIO_PY},
    "faas-netlatency": {"nodejs": _NETLATENCY_JS, "python": _NETLATENCY_PY},
    "faas-gzip": {"nodejs": _GZIP_JS, "python": _GZIP_PY},
    "faas-image-resize": {"nodejs": _IMAGE_RESIZE_JS,
                          "python": _IMAGE_RESIZE_PY},
}

_DESCRIPTIONS = {
    "faas-fact": "Integer factorization",
    "faas-matrix-mult": "Multiplication of large matrices",
    "faas-diskio": "Disk I/O performance measurement",
    "faas-netlatency": "Network latency test that immediately responds",
    "faas-gzip": "Payload compression (extra, not in the paper's figures)",
    "faas-image-resize": "Synthetic image downscale (extra, not in the "
                         "paper's figures)",
}

#: The four benchmarks the paper's figures use (Table 2).
BENCHMARK_NAMES = ("faas-fact", "faas-matrix-mult", "faas-diskio",
                   "faas-netlatency")
#: FaaSdom members beyond the paper's figures — appendix material.
EXTRA_BENCHMARK_NAMES = ("faas-gzip", "faas-image-resize")


def _make_program(name: str, language: str) -> Program:
    units, _speedup, _code = _SHAPES[name][language]
    if name in ("faas-fact", "faas-matrix-mult"):
        return program(Compute(units), Respond(0.57))
    if name == "faas-diskio":
        # 10 KB file read and write operations, 100 times (§5.2.1(2)).
        return program(
            Compute(units * 0.5),
            DiskWrite(10.0, times=100),
            DiskRead(10.0, times=100),
            Compute(units * 0.5),
            Respond(0.57),
        )
    if name == "faas-netlatency":
        # 79-byte body + ~500-byte header, no other work (§5.2.1(3)).
        return program(Compute(units), Respond(0.57))
    if name == "faas-gzip":
        # Compress ~20 KiB, write the artifact, return sizes.
        return program(Compute(units), DiskWrite(8.0), Respond(0.6))
    if name == "faas-image-resize":
        return program(Compute(units), Respond(0.8))
    raise PlatformError(f"unknown FaaSdom benchmark {name!r}")


def faasdom_spec(name: str, language: str) -> FunctionSpec:
    """Build the :class:`FunctionSpec` for one FaaSdom benchmark."""
    if name not in _SHAPES:
        raise PlatformError(f"unknown FaaSdom benchmark {name!r}")
    if language not in LANGUAGES:
        raise PlatformError(f"unknown language {language!r}")
    units, speedup, code_units = _SHAPES[name][language]
    del units  # baked into the program below
    app = AppCode(
        name=f"{name}-{language}",
        language=language,
        guest_functions=(
            GuestFunction("main", code_units=code_units,
                          jit_speedup=speedup),),
        # §5.1: npm package installation dominates Node install time.
        extra_load_ms=120.0 if language == "nodejs" else 20.0,
    )
    fixed_program = _make_program(name, language)
    return FunctionSpec(
        name=f"{name}-{language}",
        language=language,
        app=app,
        make_program=lambda payload, _p=fixed_program: _p,
        source=_SOURCES[name][language],
        description=_DESCRIPTIONS[name],
    )


def all_faasdom_specs(include_extras: bool = False
                      ) -> Tuple[FunctionSpec, ...]:
    """Every FaaSdom benchmark in both languages (Table 2's first block).

    ``include_extras`` adds the appendix workloads the paper's figures do
    not use (faas-gzip, faas-image-resize).
    """
    names = BENCHMARK_NAMES + (EXTRA_BENCHMARK_NAMES if include_extras
                               else ())
    return tuple(faasdom_spec(name, language)
                 for name in names for language in LANGUAGES)
