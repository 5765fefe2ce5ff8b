"""Fixture: event-queue access outside the kernel (SIM008 fires 6x).

Only meaningful when linted under a non-kernel virtual filename.
"""

import heapq


def schedule(env, event, heap):
    heapq.heappush(heap, event)
    env._queue_event(event)
    env._due.append(event)
    env._timer(1.0, event.succeed)
    return env._queue
