"""Fixture: model code reaching into the partitioned substrate.

Every construct below bypasses the horizon exchange that keeps runs
bit-identical across partition counts — exactly what
``determinism.partition-crossing`` exists to flag outside the
``repro.net.sim`` / ``repro.net.transport`` boundary.
"""


class Rogue:
    def jump_the_queue(self, sched, fn):
        sched.schedule_delivery("h1", "h2", 0.1, fn)

    def peek_at_lanes(self, sched):
        return len(sched._lanes)

    def reorder_a_heap(self, sched, entry):
        sched._rank_lane[0].heap.append(entry)

    def forge_origin(self, sched):
        sched._origin_seq[3] += 1

    def race_the_barrier(self, sched):
        if sched._lanes:
            return sched._round_horizon
        return None
