"""The POST /projects/{id}/auto route: jobs, traces, gauges, errors."""

from __future__ import annotations

from tests.test_service_http import (  # noqa: F401  (fixtures)
    poll_job,
    project_doc,
    request,
    server,
)


class TestAutoRoute:
    def test_auto_job_round_trip(self, server, project_doc):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]

        status, job = request(
            port, "POST", f"/projects/{pid}/auto",
            {"chips": 2, "replicate": True, "include_assignment": True},
        )
        assert status == 202
        assert job["kind"] == f"auto:{pid}"

        finished = poll_job(port, job["job_id"], timeout=120)
        assert finished["state"] == "done"
        result = finished["result"]
        assert result["chips"] == 2
        assert result["feasible"] is True
        assert sum(result["part_sizes"]) == result["operations"]
        assignment = result["assignment"]
        assert len(assignment) == result["operations"]
        assert set(assignment.values()) == {0, 1}

        # the span tree is served from the job trace artifact
        status, trace = request(
            port, "GET", f"/jobs/{job['job_id']}/trace"
        )
        assert status == 200
        names = {span["name"] for span in trace["spans"]}
        assert {
            "service.job", "auto.partition", "auto.coarsen",
            "auto.initial", "auto.refine", "auto.replicate",
            "auto.feasibility",
        } <= names

        # gauges moved under the "auto" block
        _, metrics = request(port, "GET", "/metrics")
        auto = metrics["auto"]
        assert auto["jobs"] == 1
        assert auto["feasible"] == 1
        assert auto["infeasible"] == 0

    def test_auto_rejects_bad_options(self, server, project_doc):
        service, port = server
        _, project = request(port, "POST", "/projects", project_doc)
        pid = project["project_id"]

        for bad in ({"chips": 0}, {"max_clones": -1},
                    {"feasibility_moves": -1}):
            status, err = request(
                port, "POST", f"/projects/{pid}/auto", bad
            )
            assert status == 400
            assert "invalid auto option" in err["error"]

        status, err = request(
            port, "POST", f"/projects/{pid}/auto",
            {"heuristic": "mystery"},
        )
        assert status == 400
        assert "unknown heuristic" in err["error"]

        status, err = request(
            port, "POST", f"/projects/{pid}/auto",
            {"timeout_s": "soon"},
        )
        assert status == 400
        assert "timeout_s" in err["error"]

    def test_auto_unknown_project_404(self, server):
        service, port = server
        status, err = request(
            port, "POST", "/projects/nope/auto", {"chips": 2}
        )
        assert status == 404
