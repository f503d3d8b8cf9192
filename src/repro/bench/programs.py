"""Registry of the eight evaluation benchmarks (paper §VI).

Each benchmark provides mini-C source, an optional argument list for the
entry function, and a pure-Python reference producing the expected
``out`` values.  :func:`compile_benchmark` caches compiled programs so
the experiment harnesses and the test suite share the work.
"""

from collections import namedtuple

from repro.minic.compiler import compile_source
from repro.bench import adpcm, aes, bitcount, crc32, dijkstra, rsa, sha

Benchmark = namedtuple(
    "Benchmark", ["name", "source", "args", "reference", "description"])

BENCHMARKS = {
    "bitcount": Benchmark(
        "bitcount", bitcount.SOURCE, (), bitcount.reference,
        "MiBench bit-counting kernels (4 algorithms)"),
    "dijkstra": Benchmark(
        "dijkstra", dijkstra.SOURCE, (), dijkstra.reference,
        "MiBench single-source shortest paths (dense O(n^2))"),
    "CRC32": Benchmark(
        "CRC32", crc32.SOURCE, (), crc32.reference,
        "MiBench CRC-32 with runtime table construction"),
    "adpcm_enc": Benchmark(
        "adpcm_enc", adpcm.ENCODER_SOURCE, (), adpcm.encoder_reference,
        "MiBench IMA ADPCM encoder"),
    "adpcm_dec": Benchmark(
        "adpcm_dec", adpcm.DECODER_SOURCE, (), adpcm.decoder_reference,
        "MiBench IMA ADPCM decoder"),
    "AES": Benchmark(
        "AES", aes.SOURCE, (), aes.reference,
        "FISSC AES-128 single-block encryption"),
    "RSA": Benchmark(
        "RSA", rsa.SOURCE, (), rsa.reference,
        "FISSC RSA encrypt/decrypt via modular exponentiation"),
    "SHA": Benchmark(
        "SHA", sha.SOURCE, (), sha.reference,
        "MiBench SHA-1 single-block digest"),
}

#: Paper presentation order (Tables III and IV).
BENCHMARK_ORDER = ("bitcount", "dijkstra", "CRC32", "adpcm_enc",
                   "adpcm_dec", "AES", "RSA", "SHA")

_compiled_cache = {}


def get_benchmark(name):
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from "
            f"{sorted(BENCHMARKS)}") from None


def compile_benchmark(name, **kwargs):
    """Compile (and cache) a benchmark; returns a CompiledProgram."""
    key = (name, tuple(sorted(kwargs.items())))
    if key not in _compiled_cache:
        benchmark = get_benchmark(name)
        _compiled_cache[key] = compile_source(benchmark.source, **kwargs)
    return _compiled_cache[key]
