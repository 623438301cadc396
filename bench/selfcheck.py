"""Self-check of the benchmark itself, at tiny input sizes.

    python3 bench/selfcheck.py

For every workload in ``BENCHMARK.json`` it runs ``run.py`` with tracing off
and on and asserts that the result line carries exactly the metrics the file
names, each with its unit, and that every operation passed (with tracing on,
that includes traced reports being byte-identical to untraced ones).  It then
corrupts each checked report in-process, one field at a time, and asserts
that the output check of that field reports it (see :func:`_corruptions`).
"""

import copy
import json
import subprocess
import sys
import tempfile

import numpy as np

import run

TIMEOUT_S = 600


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _anti_sorted(values):
    """The same weights, largest where the smallest was: they still sum to 1."""
    w = np.asarray(values, dtype=float)
    out = np.empty_like(w)
    out[np.argsort(w)] = np.sort(w)[::-1]
    return out


def _nudged(prob):
    """A probability moved by 1e-3, three orders above the checks' tolerance."""
    return prob + 1e-3 if prob < 0.5 else prob - 1e-3


def _corruptions(report):
    """``(field, corrupted copy, message the check must give)`` per checked field.

    Each corruption changes one field and keeps the report consistent
    otherwise (weights still sum to 1, standard errors match the changed
    rates), so the cheap guards pass and the oracle comparison aimed at
    must be the one that reports it.
    """
    out = []

    def variant(field, expect, mutate):
        rep = copy.deepcopy(report)
        mutate(rep.get("result", rep))
        out.append((field, rep, expect))

    def scale(key, factor):
        def mutate(r):
            r[key] *= factor
        return mutate

    r = report.get("result", report)
    if "t_values" in r:
        def bump_t(r):
            r["t_values"][int(np.argmax(r["t_values"]))] *= 1.01
        variant("t_values", "max t", bump_t)
        variant("p_value", "bonferroni p",
                lambda r: r["p_value"].update(bonferroni=_nudged(r["p_value"]["bonferroni"])))
    elif "statistic" in r:
        variant("statistic", "statistic:", scale("statistic", 1.0 + 1e-4))
        variant("calibration_scale_value", "calibration_scale_value:",
                scale("calibration_scale_value", 1.0 + 1e-4))
        (label, _), = r["p_value"].items()
        variant("p_value", "p_value",
                lambda r: r["p_value"].update({label: _nudged(r["p_value"][label])}))
    if "threshold" in r:
        variant("threshold", "threshold", scale("threshold", 1.001))
    if "active_subset" in r and r["family"].endswith("_orthant"):
        def toggle(r):
            last = r["p"] - 1
            sub = r["active_subset"]
            r["active_subset"] = [i for i in sub if i != last] if last in sub else sub + [last]
        variant("active_subset", "active_subset", toggle)
    if isinstance(r.get("critical_value"), dict):
        def bump_cv(r):
            r["critical_value"]["value"] *= 1.001
        variant("critical_value", "critical value", bump_cv)
    elif isinstance(r.get("critical_value"), float):
        variant("critical_value", "critical value", scale("critical_value", 1.001))
    if r.get("achieved_alpha") is not None:
        variant("achieved_alpha", "achieved_alpha", scale("achieved_alpha", 1.01))
    if "reject" in r:
        variant("reject", "reject disagrees", lambda r: r.update(reject=not r["reject"]))
    if isinstance(r.get("weights"), dict):
        def permute(r):
            block = r["weights"]
            w = _anti_sorted(block["values"])
            block["values"] = w.tolist()
            block["std_errors"] = np.sqrt(w * (1 - w) / block["mc_samples"]).tolist()
        variant("weights", "vs independent", permute)
    elif isinstance(r.get("weights"), list):
        def permute_chi_bar(r):
            w = _anti_sorted(r["weights"])
            r["weights"] = w.tolist()
            r["std_errors"] = np.sqrt(w * (1 - w) / r["mc_samples"]).tolist()
        variant("weights", "vs Genz", permute_chi_bar)
    if "reduction" in r:
        def bump_induced(r):
            r["reduction"]["induced_constraints"][0][0] += 1e-6
        variant("induced_constraints", "induced constraint", bump_induced)
    if "metadata" in r:
        def bump_cvs(r):
            cvs = r["metadata"]["critical_values"]
            key = sorted(cvs)[0]
            cvs[key] *= 1.001
        variant("critical_values", "critical value", bump_cvs)
    rows = r.get("rows", [])
    for i, row in enumerate(rows):
        if "rejection_rate" in row and not any(row["theta"]):
            def shift_null(r, i=i):
                row, reps = r["rows"][i], r["metadata"]["replications"]
                alpha = r["metadata"]["alpha"]
                rate = alpha + 10.0 * np.sqrt(alpha * (1 - alpha) / reps)
                row["rejection_rate"] = rate
                row["mc_std_error"] = float(np.sqrt(rate * (1 - rate) / reps))
            variant(f"rows[{i}].rejection_rate", "null rate", shift_null)
        if row.get("power_halfspace", 0.0) > row.get("power_orthant", 0.0):
            def swap(r, i=i):
                row = r["rows"][i]
                row["power_halfspace"], row["power_orthant"] = (
                    row["power_orthant"], row["power_halfspace"])
            variant(f"rows[{i}].power_halfspace", "halfspace power below", swap)
    if rows and "implication_violations" in rows[0]:
        def violate(r):
            r["rows"][0]["implication_violations"] = 1
        variant("implication_violations", "implication violations", violate)
        variant("flagged", "flagged rows", lambda r: r.update(flagged=[0]))
    return out


def _corruptions_caught(cli, workload):
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT) as workdir:
        wl = workloads.build(workload, 7, workdir, "tiny", str(run.ROOT))
        _, _, outcomes = run.run_pass(cli, wl.ops)
        texts, errors = run.collect(wl.ops, outcomes)
    assert not errors, errors
    caught = 0
    for op, text in zip(wl.ops, texts):
        report = json.loads(text)
        assert not op.check(report), f"{op.name}: clean report failed its check"
        variants = _corruptions(report)
        assert variants, f"{op.name}: no field to corrupt"
        for field, corrupted, expect in variants:
            errs = op.check(corrupted)
            assert any(expect in e for e in errs), (
                f"{op.name}: corrupted {field} not reported as {expect!r}: {errs}")
        caught += len(variants)
    return caught


def main():
    cli = run._load_program()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = _result(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
        caught = _corruptions_caught(cli, workload)
        print(f"{workload}: metrics ok; {caught} single-field corruptions caught")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
