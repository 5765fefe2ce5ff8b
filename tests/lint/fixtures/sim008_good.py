"""Fixture: scheduling through the public API (SIM008 quiet)."""


def schedule(env, duration):
    return env.timeout(duration)


def step(stage, duration, then):
    stage.sleep(duration, then)
