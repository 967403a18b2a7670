"""Set-up probe: import the lab, solve one tiny scene, print ``ready``.

``run.py`` times this script from process start to the ``ready`` line; that
is the set-up a user pays on every ``dumbbell run``.
"""

# A scene small enough to cost less than the imports; it goes through
# mesh, metric, assembly, eigen and oracle.
TINY_SCENE = {"scenario": "scaling", "n": 8, "epsilons": (1e-1, 1e-2, 1e-3),
              "oracle_resolution": 64}


def warm_up(experiments) -> None:
    report = experiments.run_scenario(experiments.ScenarioConfig.from_mapping(TINY_SCENE))
    if report.failures:
        raise RuntimeError(f"warm-up scene failed: {report.failures}")


if __name__ == "__main__":
    from dumbbell import experiments

    warm_up(experiments)
    print("ready", flush=True)
