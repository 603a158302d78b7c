#!/usr/bin/env python
"""A year in the life of an array: field rates, scrubbing, online repair.

Puts the calibrated pieces together: error arrivals at the rates the
paper's cited studies measured, a background scrubber that takes real
time to find them, foreground traffic that occasionally trips over failed
chunks, FBF-cached background repair, and the MTTDL consequence.

Run:  python examples/field_study.py
"""

from repro import SimConfig, make_code
from repro.analysis import mttdl_3dft
from repro.sim.online import run_online_recovery
from repro.workloads import (
    AppWorkloadConfig,
    FieldModel,
    expected_error_count,
    generate_app_requests,
    generate_field_trace,
)


def main() -> None:
    layout = make_code("tip", 11)
    model = FieldModel()
    duration_days = 365.0

    print(f"deployment: one {layout.name} p=11 array "
          f"({layout.num_disks} disks), observed {duration_days:.0f} days")
    expected = expected_error_count(model, layout.num_disks, duration_days)
    print(f"calibrated LSE model: {model.lse_disk_fraction:.2%} of disks in "
          f"{model.study_months:.0f} months, x{model.events_per_affected_disk:.0f} "
          f"re-occurrence -> E[error events] = {expected:.1f}/array-year\n")

    # Sample several array-years until we get a busy one to show.
    errors = []
    for seed in range(50):
        errors = generate_field_trace(
            layout, duration_days=duration_days, array_stripes=50_000,
            model=model, seed=seed,
        )
        if len(errors) >= 3:
            break
    print(f"sampled array-year (seed {seed}): {len(errors)} partial stripe errors")
    for e in errors[:5]:
        print(f"  day {e.time / 86400:6.1f}: disk {e.disk}, stripe {e.stripe}, "
              f"{e.length} chunks")

    # Foreground traffic across the same window.
    apps = generate_app_requests(
        layout,
        AppWorkloadConfig(
            n_requests=3000, seed=1, array_stripes=50_000,
            working_set=2000, interarrival=duration_days * 86400 / 3000,
        ),
    )

    for detection, kwargs in [
        ("immediate", {}),
        ("scrub", dict(scrub_scan_time=60.0, scrub_cycle=50_000)),
    ]:
        rep = run_online_recovery(
            layout, errors, apps,
            SimConfig(policy="fbf", cache_size="4MB", workers=4),
            detection=detection, **kwargs,
        )
        print(f"\ndetection={detection}:")
        print(f"  mean detection latency: "
              f"{rep.mean_detection_latency / 3600:.1f} hours")
        print(f"  degraded foreground reads: {rep.degraded_reads} "
              f"({rep.access_detections} errors found by access)")

    # The reliability frame: repair time vs MTTDL.
    mtbf = 1_000_000.0
    for repair_hours, label in [(24.0, "1-day repair"), (2.4, "2.4-hour repair")]:
        mttdl = mttdl_3dft(layout.num_disks, mtbf, repair_hours)
        print(f"\nMTTDL with {label}: {mttdl:.3e} hours "
              f"({mttdl / 8766:.2e} years)")
    print("-> every hour shaved off detection+repair multiplies MTTDL;"
          " that is the window FBF attacks.")


if __name__ == "__main__":
    main()
