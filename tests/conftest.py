import ctypes
import subprocess

import numpy as np
import pytest
from hypothesis import settings

# numpy-heavy examples can trip the default per-example deadline under load
settings.register_profile("kgpoint", deadline=None)
settings.load_profile("kgpoint")


@pytest.fixture(scope="session")
def node_values():
    """Seeded complex node values as numpy scalars: 3000 moduli from 1e-3 to 1e3, 200 about where |z|^2
    overflows (1.34e154), 1e160, 1e200, 1e308 and both parts 1.5e308, where abs itself overflows in Python."""
    rng = np.random.default_rng(20)
    moduli = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 3000), 10.0 ** rng.uniform(153.8, 154.4, 200),
                             [1e160, 1e200, 1e308]])
    return [*(moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, moduli.size))), np.complex128(1.5e308 + 1.5e308j)]


@pytest.fixture(scope="session", autouse=True)
def compiled_passes():
    """The compiled library, built before the first test, so that no test's clock includes a cold build."""
    from kgpoint import _passes

    return _passes.library()


# entries on the library's own parts that it does not export: each build of the stepping loop and the wavefront's
# shape, the solve's residual at given coupling rows, its Jacobian, elimination and sup-norm, and the phase fit to a
# candidate wave; declared by the library's reader
PROBE_ENTRIES = """
int kgp_probe_run(int build, double *p, double *q, double *k, ptrdiff_t n, double dt, double c, double scale,
                  ptrdiff_t nsites, const ptrdiff_t *sites, const int *ncoef, const double *coef, double force_scale,
                  int primed, ptrdiff_t steps)
{
    if (build < 0 || build >= BUILDS || !builds[build] || !supported(build))
        return -1;
    builds[build](p, q, k, n, dt, c, scale, nsites, sites, ncoef, coef, force_scale, primed, steps);
    return 0;
}

ptrdiff_t kgp_probe_wavefront(int chunk)
{
    return chunk ? CHUNK : DEPTH;
}

void kgp_probe_residual(const struct kgp_model *m, const double *coupling, double k2, const double *c, double *res,
                        double *slopes)
{
    residual(m, coupling, k2, c, res, slopes);
}

void kgp_probe_jacobian(ptrdiff_t n, const double *coupling, double k2, const double *slopes, double *jac)
{
    jacobian(n, coupling, k2, slopes, jac);
}

int kgp_probe_solve_linear(ptrdiff_t w, double *a, double *b, double *x)
{
    return solve_linear(w, a, b, x);
}

double kgp_probe_sup_norm(const double *x, ptrdiff_t len)
{
    return sup_norm(x, len);
}

double kgp_probe_fit_dist(const struct kgp_metric *m, const double *p, const double *q, ptrdiff_t n)
{
    const struct kgp_wave w = {p, q, n};
    return fit_dist(m, &w);
}
"""


def probe_source() -> str:
    """The probe's one translation unit: every source of the compiled passes, then PROBE_ENTRIES."""
    from kgpoint import _passes

    return "".join(f'#include "{path}"\n' for path in _passes.SOURCES) + PROBE_ENTRIES


def _doubles(values):
    values = list(values)
    return (ctypes.c_double * len(values))(*values)


class Probe:
    """A library built from every source of the compiled passes in one translation unit, with the library's compile
    command: its static and hidden parts called one by one (PROBE_ENTRIES), and the C layout of each structure that
    the library reads from the sources (structs)."""

    def __init__(self, directory):
        from kgpoint import _passes

        self.structs = _passes.library().structs
        self.terms = []
        for name, structure in self.structs.items():
            self.terms.append(f"sizeof(struct {name})")
            for field, _ in structure._fields_:
                self.terms += [f"offsetof(struct {name}, {field})", f"sizeof(((struct {name} *)0)->{field})"]
        source = directory / "probe.c"
        source.write_text(probe_source() + f"const long long kgp_layout[] = {{{', '.join(self.terms)}}};\n")
        built = subprocess.run([*_passes._compile_command(), "-o", str(directory / "probe.so"), str(source),
                                *_passes._LIBS], capture_output=True, text=True)
        assert built.returncode == 0, built.stderr
        self.lib = ctypes.CDLL(str(directory / "probe.so"))
        self.model_block, self.pair = _passes.model_block, _passes._pair
        for name, (argtypes, restype) in _passes.entries(PROBE_ENTRIES, self.structs).items():
            entry = getattr(self.lib, name)
            entry.argtypes, entry.restype = argtypes, restype

    def layout(self):
        """(term, value) of each sizeof and offsetof the probe reports, in the order of structs and of each
        structure's fields."""
        return list(zip(self.terms, (ctypes.c_longlong * len(self.terms)).in_dll(self.lib, "kgp_layout")))

    BUILDS = ("plain", "avx2", "avx512f")  # the stepping loop's builds, by their index in the library

    def wavefront(self):
        """(DEPTH, CHUNK): the most steps of a group of the stepping loop, and the floats of its chunks."""
        return self.lib.kgp_probe_wavefront(0), self.lib.kgp_probe_wavefront(1)

    def run(self, build, model, nodes, dx, dt, psi, pi, kick, primed, steps):
        """steps kick-drift-kick steps of (psi, pi) in place by the named build of the stepping loop, kick p's kick
        when primed, as kgp_evolve takes a sample interval; False, touching nothing, where this CPU or this
        architecture has no such build."""
        block = self.model_block(model).contents
        c, scale, force_scale = 2.0 + model.mass**2 * dx**2, 0.5 * dt / dx**2, 0.5 * dt / dx
        sites = (ctypes.c_ssize_t * len(nodes))(*nodes)
        return self.lib.kgp_probe_run(self.BUILDS.index(build), psi.ctypes.data, pi.ctypes.data, kick.ctypes.data,
                                      2 * psi.size, dt, c, scale, len(nodes), sites, block.nslope, block.slope,
                                      force_scale, primed, steps) == 0

    def residual(self, model, kap, c, coupling):
        """The solve's residual at c, a list of Python complex, k2 = 2 kap and the coupling rows, and per J its
        slopes (fuu, fuv, fvv)."""
        n = model.count
        res, slopes = _doubles([0.0] * (2 * n)), _doubles([0.0] * (3 * n))
        self.lib.kgp_probe_residual(self.model_block(model), _doubles(e for row in coupling for e in row), 2.0 * kap,
                                    _doubles(p for z in c for p in (z.real, z.imag)), res, slopes)
        return res[:], [tuple(slopes[3 * j:3 * j + 3]) for j in range(n)]

    def jacobian(self, kap, coupling, slopes):
        """The solve's Jacobian, as a list of row lists."""
        w = 2 * len(coupling)
        jac = _doubles([0.0] * (w * w))
        self.lib.kgp_probe_jacobian(len(coupling), _doubles(e for row in coupling for e in row), 2.0 * kap,
                                    _doubles(v for abc in slopes for v in abc), jac)
        return [jac[i * w:(i + 1) * w] for i in range(w)]

    def solve_linear(self, a, b):
        """The solve's elimination on copies of a (a list of row lists) and b; a zero pivot raises
        ZeroDivisionError."""
        x = _doubles([0.0] * len(b))
        if self.lib.kgp_probe_solve_linear(len(b), _doubles(e for row in a for e in row), _doubles(b), x):
            raise ZeroDivisionError("singular matrix")
        return x[:]

    def sup_norm(self, x):
        """The solve's sup-norm of the floats x."""
        return self.lib.kgp_probe_sup_norm(_doubles(x), len(x))

    def fit_dist(self, metric, psi, pi):
        """The metric distance from a Metric's state to the closest phase of the candidate wave (psi, pi) on the
        same nodes."""
        n = self.pair(psi, pi)
        if n != metric.n:
            raise ValueError(f"a wave on {n} nodes, the metric's window has {metric.n}")
        return self.lib.kgp_probe_fit_dist(metric.block, psi.ctypes.data, pi.ctypes.data, n)


@pytest.fixture(scope="session")
def probe(tmp_path_factory):
    """The probe library (Probe), built once a session."""
    return Probe(tmp_path_factory.mktemp("probe"))
