"""Outside-in span recorder and the per-layer report built from it.

Nothing under ``src/`` knows about tracing.  ``install`` replaces each
listed public function by a wrapper in every ``quandlekit`` module
namespace that binds that function object, because the CLI imports
functions by name (``from .rings import multiply``) and calls inside a
module resolve through that module's globals.  Each call records a span
(name, start, end, parent, job); spans stay in memory until the pass ends.

A span's self time is its duration minus the time its child spans cover,
so time spent in unlisted helpers (and in ``domains``, which works per
element) lands in the self time of the nearest listed caller.
"""

import functools
import gzip
import sys
import time
from array import array

# layer (module) -> traced public functions
TRACED = {
    "cli": ("main",),
    "quandles": ("validate_table", "from_json_dict", "orbits"),
    "symmetry": (
        "enumerate_quandles", "canonical_form", "left_semigroup", "inner_group",
        "maximal_subgroup_at_idempotents", "is_2transitive", "is_left_2transitive",
        "is_left_peak_2transitive", "is_right_orbit_2transitive", "quandles_isomorphic",
    ),
    "rings": (
        "quandle_ring", "multiply", "power_assoc_witness", "right_annihilator_count",
        "is_ring_isomorphism", "ring_iso_brute_force", "is_ring_homomorphism",
    ),
    "lattices": (
        "generated_right_ideal", "verify_simple_decomposition", "delta_powers",
        "submodule_product", "quotient_shape",
    ),
    "linalg": ("hermite_normal_form", "smith_normal_form", "hnf_coordinates", "rref"),
    "dihedral": ("delta_series_shapes", "verify_product_formulas", "e_product"),
    "counterexamples": ("generalized_counterexample",),
}

# Work counts observed on results, as metric name -> (traced function, kind).
RATIOS = {
    "symmetry.canonical_form.distinct_ratio": ("symmetry.canonical_form", "distinct"),
    "symmetry.left_semigroup.elements": ("symmetry.left_semigroup", "size"),
    "rings.is_ring_homomorphism.true_ratio": ("rings.is_ring_homomorphism", "true"),
    "linalg.hermite_normal_form.max_bits": ("linalg.hermite_normal_form", "bits"),
}

ROOT = "bench.job"


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for layer, fns in TRACED.items():
        for fn in fns:
            names += ["%s.%s.calls" % (layer, fn), "%s.%s.self_s" % (layer, fn)]
    names += ["%s.self_s" % layer for layer in TRACED]
    names += ["%s.errors" % layer for layer in TRACED]
    return names + list(RATIOS)


class _Observer:
    """Accumulates one work count from the results of one function."""

    def __init__(self, kind):
        self.kind = kind
        self.calls = 0
        self.value = 0
        self.distinct = set()

    def __call__(self, result):
        self.calls += 1
        if self.kind == "distinct":
            self.distinct.add(result)
        elif self.kind == "size":
            self.value += len(result)
        elif self.kind == "true":
            self.value += result is True
        else:
            bits = max((abs(v).bit_length() for row in result for v in row), default=0)
            self.value = max(self.value, bits)

    def report(self):
        if self.kind == "distinct":
            return len(self.distinct) / self.calls if self.calls else 0.0
        if self.kind == "true":
            return self.value / self.calls if self.calls else 0.0
        return self.value


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.jobs = array("l")
        self.names_of = array("l")
        self.errors = set()
        self.stack = []
        self.job = -1
        self.observers = {name: _Observer(kind) for name, kind in RATIOS.values()}
        self.absent = []
        self._name_id(ROOT)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id):
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.names_of.append(name_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx, failed=False):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()
        if failed:
            self.errors.add(idx)

    def wrap(self, fn, name):
        name_id = self._name_id(name)
        observe = self.observers.get(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx)
            if observe is not None:
                observe(result)
            return result

        return traced

    def begin_job(self, job):
        self.job = job
        return self.open(self._name_id(ROOT))

    def end_job(self, idx):
        self.close(idx)
        self.job = -1

    def install(self):
        """Wrap every listed function that exists; note the ones that do not."""
        import quandlekit.cli  # noqa: F401  (imports every layer)

        modules = [m for key, m in list(sys.modules.items()) if key == "quandlekit" or key.startswith("quandlekit.")]
        for layer, fns in TRACED.items():
            home = sys.modules.get("quandlekit." + layer)
            for fn_name in fns:
                name = "%s.%s" % (layer, fn_name)
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(original, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def spans(self):
        """(name, start, end, parent, job) for every recorded span."""
        return [
            (self.names[self.names_of[i]], self.starts[i], self.ends[i], self.parents[i], self.jobs[i])
            for i in range(len(self.starts))
        ]

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for span in self.spans():
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)

    def report(self):
        metrics = layer_report(self.spans(), self.errors)
        for metric, (name, _) in RATIOS.items():
            metrics[metric] = self.observers[name].report()
        return metrics


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover, clipped to the span."""
    children = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _layer(name):
    return name.split(".", 1)[0]


def layer_report(spans, errors):
    """Calls and self time per listed function, self time and escaping
    errors per layer.  An error escapes a layer when the failing span's
    caller is in another layer or is the job itself."""
    metrics = {name: 0.0 if name.endswith("self_s") else 0 for name in metric_names() if name not in RATIOS}
    selfs = self_times(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == ROOT or "%s.calls" % name not in metrics:
            continue
        layer = _layer(name)
        metrics["%s.calls" % name] += 1
        metrics["%s.self_s" % name] += selfs[i]
        metrics["%s.self_s" % layer] += selfs[i]
        if i in errors and (parent < 0 or _layer(spans[parent][0]) != layer):
            metrics["%s.errors" % layer] += 1
    return metrics
