"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (the file name does not match
``test_*.py``); it needs the checkout's ``src/`` for the tracing tests.
"""

import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import importtime  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        spec = load_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]] + [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_traced_names_exist_in_the_package(self):
        import cqed_lab.cli  # noqa: F401
        traced = set(spans.Tracer().targets().values())
        for m in load_spec()["per_layer"]:
            parts = m["name"].split(".")
            if parts[0] in spans.LAYERS and len(parts) == 3:
                self.assertIn(f"{parts[0]}.{parts[1]}", traced, m["name"])


class Checker(unittest.TestCase):
    def _fit_spectra_dir(self, root, verdict_text):
        out = os.path.join(root, "fit")
        os.makedirs(out)
        rows = ["# cqed-lab sweep-records v1", "source,detuning_ueV,x,x,x,x,x,x,x,x"]
        rows += [f"f{k}.txt,{k - 2},1,2,3,4,5,6,0.5,0.5" for k in range(5)]
        with open(os.path.join(out, "sweep_records.csv"), "w") as fh:
            fh.write("\n".join(rows) + "\n")
        with open(os.path.join(out, "verdict.json"), "w") as fh:
            fh.write(verdict_text)
        inv = {"step": "fit", "out": "fit", "command": "fit-spectra",
               "system": "pc"}
        files = [f"f{k}.txt" for k in range(5)]
        return checks.check_step(inv, root, [], files, 0)

    def test_valid_verdict_passes(self):
        verdict = {"format": "cqed-lab verdict v1", "n_records": 5,
                   "n_failures": 0, "label": "anti_crossing",
                   "min_separation_ueV": 60.0, "threshold_ueV": 40.0}
        with tempfile.TemporaryDirectory() as root:
            chk = self._fit_spectra_dir(root, json.dumps(verdict))
        self.assertEqual(chk.problems, [])
        self.assertEqual((chk.attempted, chk.failed), (7, 0))
        self.assertEqual(chk.quality["verdict_ok"], 1.0)

    def test_corrupted_verdict_is_flagged(self):
        good = json.dumps({"format": "cqed-lab verdict v1", "n_records": 5,
                           "n_failures": 0, "label": "anti_crossing",
                           "min_separation_ueV": 60.0, "threshold_ueV": 40.0})
        wrong_count = good.replace('"n_records": 5', '"n_records": 4')
        for text in (good[:len(good) // 2], wrong_count,
                     good.replace("60.0", "NaN")):
            with tempfile.TemporaryDirectory() as root:
                chk = self._fit_spectra_dir(root, text)
            self.assertTrue(chk.problems, text)


class Tracing(unittest.TestCase):
    def test_wrapper_returns_the_same_object(self):
        sentinel = object()
        tracer = spans.Tracer()
        wrapped = tracer._wrap("model.sentinel", lambda: sentinel)
        self.assertIs(wrapped(), sentinel)
        self.assertEqual([s.name for s in tracer.take()], ["model.sentinel"])

    def test_wrapping_leaves_results_unchanged(self):
        from cqed_lab import inference, instrument, model, spectra

        params = model.SystemParams(g=22.6, kappa=110.0, gamma=1.3,
                                    gamma_dp=6.3)
        grid = np.linspace(-800.0, 800.0, 1024)
        det = spectra.DetectionCoefficients()
        t = np.arange(-40, 400) * 0.01
        curve = instrument.SampledSignal(
            t, np.where(t >= 0, 1e4 * np.exp(-3.0 * np.clip(t, 0, None)), 0.0)
            + 5.0, "temporal")

        def compute():
            spec = spectra.emission_spectrum(params, det, grid)
            fit = inference.fit_decay(curve, mode="multi")
            return spec, fit

        spec0, fit0 = compute()
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(spectra.emission_spectrum, "__wrapped__"))
            spec1, fit1 = compute()
        finally:
            tracer.uninstall()
        recorded = {s.name for s in tracer.take()}
        self.assertIn("spectra.emission_spectrum", recorded)
        self.assertIn("inference.fit_decay", recorded)
        self.assertIn("inference.least_squares", recorded)
        np.testing.assert_array_equal(spec0.intensity, spec1.intensity)
        np.testing.assert_array_equal(spec0.omega, spec1.omega)
        self.assertEqual(fit0.to_dict(), fit1.to_dict())
        self.assertIs(model.propagate, spectra.propagate)
        self.assertFalse(hasattr(model.propagate, "__wrapped__"))


class Layers(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tree = [spans.Span("cli.main", 0.0, 10.0, None),
                spans.Span("model.propagate", 1.0, 4.0, 0),
                spans.Span("model.propagate", 2.0, 3.0, 1),
                spans.Span("inference.least_squares", 5.0, 9.0, 0,
                           info={"nfev": 7, "max_nfev_hits": 0})]
        out = spans.layer_metrics(tree)
        self.assertEqual(out["cli.self_s"], 3.0)
        self.assertEqual(out["model.propagate.calls"], 2)
        self.assertEqual(out["model.propagate.s"], 3.0)
        self.assertEqual(out["model.s"], 3.0)
        self.assertEqual(out["model.self_s"], 3.0)
        self.assertEqual(out["inference.least_squares.nfev"], 7)

    def test_importtime_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       900 |     425000 |     scipy.stats",
            "import time:      1000 |    1200000 | cqed_lab.cli"])
        out = importtime.parse(text)
        self.assertEqual(out["import.total_s"], 1.2)
        self.assertEqual(out["import.scipy_stats_s"], 0.425)
        self.assertEqual(out["import.scipy_signal_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
