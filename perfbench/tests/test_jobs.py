import pytest

import jobs


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_workload_is_deterministic_per_seed(name):
    build = jobs.WORKLOADS[name]
    a, b = build(3), build(3)
    assert a.jobs == b.jobs and a.relations == b.relations
    assert {k: g.text() for k, g in a.files.items()} == {k: g.text() for k, g in b.files.items()}


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_jobs_are_checked(name):
    w = jobs.WORKLOADS[name](11)
    ids = [j.id for j in w.jobs]
    assert len(ids) == len(set(ids))
    for i, job in enumerate(w.jobs):
        assert job.exit in (0, 1)
        for arg in job.argv:
            assert not arg.endswith(".str") or arg in w.files
        if "--certificate" in job.argv and job.kind == "decide":
            cert = job.argv[job.argv.index("--certificate") + 1]
            follower = w.jobs[i + 1]
            assert follower.kind == "verify" and cert in follower.argv
            assert (follower.exit, follower.line) == (0, "result: true")
        if job.kind == "decide" and job.argv[0] == "equiv":
            assert job.line == ("result: true" if job.exit == 0 else "result: false")
    for left, op, right, offset in w.relations:
        assert left in ids and right in ids and op in ("==", ">=")


def test_cli_small_covers_every_subcommand():
    w = jobs.cli_small(0)
    assert {j.argv[0] for j in w.jobs} == {"hom", "equiv", "param", "oracle", "laws",
                                          "eval", "sample", "verify"}
    assert all(len(g.elems) <= 5 for g in w.files.values())
