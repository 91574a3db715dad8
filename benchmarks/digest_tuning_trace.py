"""Digest of tuning trajectories over every consumer of the GP, to compare two commits.

    PYTHONPATH=<checkout>/src python benchmarks/digest_tuning_trace.py

Not a pytest file.  It uses only the public tuning API
(``VDMSTuningEnvironment``, ``make_tuner``, ``VDTuner(bootstrap_history=...)``,
``VDTunerSettings``), so the same file runs on any two checkouts: copy it next
to an older one and diff the output.  One line per scenario, a sha256 over
``(index_type, sorted(configuration.items()), round(speed, 6), round(recall,
6))`` of every observation in evaluation order.  The repo benchmark's
``tune_loop`` digests the sequential VDTuner loop alone; the scenarios here
are the other ways into the surrogate — the constrained acquisition (Eq. 7),
the native surrogate, a fantasized q = 4 batch, a warm start whose stale
observations are fitted with inflated noise, and the two GP baselines.  A
change to the GP fit, the encodings or the candidate pool that claims the same
recommendations (the per-fit likelihood objective and the cached encodings
did) must print the same lines as its parent.
``digest_tuning_trace.expected`` holds them, and CI diffs the output against it.
"""

import hashlib

from repro import ObjectiveSpec, VDMSTuningEnvironment, VDTuner, VDTunerSettings, make_tuner

DATASET_SCALE = 0.1  # a tenth of glove-small: replays of ~0.1 s, the tuner's own work unchanged
VDTUNER_ITERATIONS = 28  # 7 default sweeps, then 21 model-based recommendations; two index types are abandoned on the way
BASELINE_ITERATIONS = 22  # 10 Latin-hypercube samples, then 12 GP-driven ones


def environment() -> VDMSTuningEnvironment:
    return VDMSTuningEnvironment("glove-small", seed=0, dataset_scale=DATASET_SCALE)


def digest(history) -> str:
    trace = [
        (o.index_type, sorted(o.configuration.items()), round(float(o.speed), 6), round(float(o.recall), 6))
        for o in history
    ]
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def vdtuner(objective=None, **options):
    settings = VDTunerSettings(num_iterations=VDTUNER_ITERATIONS, seed=0, **options)
    return make_tuner("vdtuner", environment(), objective=objective, settings=settings)


def main() -> None:
    sequential = vdtuner().run().history
    print("vdtuner-sequential", digest(sequential))

    constrained = vdtuner(objective=ObjectiveSpec(recall_constraint=0.9))
    print("vdtuner-recall-constrained", digest(constrained.run().history))

    print("vdtuner-native-surrogate", digest(vdtuner(use_polling_surrogate=False).run().history))

    print("vdtuner-batch-4", digest(vdtuner().run(batch_size=4).history))

    # The sequential run's observations come back as stale knowledge: they lead
    # the training history with 4x the noise and do not count as achieved.
    warm = VDTuner(
        environment(),
        VDTunerSettings(num_iterations=12, stale_noise_inflation=4.0, seed=0),
        bootstrap_history=sequential,
    )
    print("vdtuner-warm-start-stale-noise", digest(warm.run().history))

    for name in ("qehvi", "ottertune"):
        baseline = make_tuner(name, environment(), seed=0)
        print(f"baseline-{name}", digest(baseline.run(BASELINE_ITERATIONS).history))


if __name__ == "__main__":
    main()
