"""Walkthrough of the explanation service: submit, poll, cache hit, cancel.

Starts the HTTP service in-process on an ephemeral port (the same server that
``repro-affidavit serve`` runs), then talks to it with plain ``urllib`` the
way any client would:

1. ``GET /healthz`` — liveness and pool statistics,
2. ``POST /v1/explain`` — submit the paper's running example inline,
3. ``GET /v1/jobs/<id>`` — poll until done,
4. ``GET /v1/jobs/<id>/result`` — fetch the explanation as JSON and SQL,
5. repeat the submission — observe the result-store hit,
6. submit a throttled job and ``DELETE`` it mid-search,
7. ``GET /v1/jobs/<id>/events`` — follow a job live as a stream of
   ``affidavit.event/v1`` frames instead of polling,
8. point a second replica at the same sqlite result store — observe the
   cross-replica ``store_hit``.

Run with::

    PYTHONPATH=src python examples/service_walkthrough.py
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import tempfile
from pathlib import Path

from repro.api import parse_frame
from repro.dataio import to_csv_text
from repro.datagen.running_example import source_table, target_table
from repro.service import SqliteResultStore, create_server


def call(base_url: str, method: str, path: str, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base_url + path, method=method, data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            raw, content_type = response.read(), response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:  # 4xx/5xx still carry a JSON body
        raw, content_type = error.read(), error.headers.get("Content-Type", "")
    text = raw.decode("utf-8")
    return json.loads(text) if content_type.startswith("application/json") else text


def wait_done(base_url: str, job_id: str) -> dict:
    while True:
        view = call(base_url, "GET", f"/v1/jobs/{job_id}")
        if view["state"] in ("done", "failed", "cancelled"):
            return view
        time.sleep(0.05)


def main() -> None:
    server = create_server(workers=2)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    print(f"service listening on {base_url}\n")

    print("=== 1. GET /healthz ===")
    print(json.dumps(call(base_url, "GET", "/healthz"), indent=2))

    print("\n=== 2. POST /v1/explain (running example, inline CSV) ===")
    body = {
        "source_csv": to_csv_text(source_table()),
        "target_csv": to_csv_text(target_table()),
        "name": "running-example",
    }
    view = call(base_url, "POST", "/v1/explain", body)
    print(f"job {view['id']} accepted, state={view['state']}")

    print("\n=== 3./4. poll and fetch the result ===")
    view = wait_done(base_url, view["id"])
    result = call(base_url, "GET", f"/v1/jobs/{view['id']}/result")
    print(f"state={view['state']}, cost={result['cost']:.1f} "
          f"(trivial {result['trivial_cost']:.1f}, "
          f"ratio {result['compression_ratio']:.2f})")
    for attribute, function in sorted(result["explanation"]["functions"].items()):
        print(f"  {attribute:<6s} -> {function['meta']}({', '.join(function.get('parameters', []))})")
    print("\n--- the same result as SQL ---")
    print(call(base_url, "GET", f"/v1/jobs/{view['id']}/result?format=sql"))

    print("=== 5. resubmit: result-store hit ===")
    repeat = call(base_url, "POST", "/v1/explain", body)
    print(f"job {repeat['id']}: state={repeat['state']}, cache_hit={repeat['cache_hit']}")

    print("\n=== 6. cancel a slow job mid-search ===")
    slow = dict(body, name="slow", throttle_seconds=0.5, use_cache=False)
    view = call(base_url, "POST", "/v1/explain", slow)
    while call(base_url, "GET", f"/v1/jobs/{view['id']}")["progress"] is None:
        time.sleep(0.02)
    print(call(base_url, "DELETE", f"/v1/jobs/{view['id']}"))
    final = wait_done(base_url, view["id"])
    print(f"job {final['id']} ended as {final['state']}")

    print("\n=== 7. stream a job's events (NDJSON) ===")
    streamed = dict(body, name="streamed", overrides={"seed": 42})
    view = call(base_url, "POST", "/v1/explain", streamed)
    with urllib.request.urlopen(
            f"{base_url}/v1/jobs/{view['id']}/events", timeout=30.0) as stream:
        for line in stream:
            frame = parse_frame(json.loads(line))
            summary = {k: v for k, v in frame.payload.items() if k != "outcome"}
            print(f"  seq={frame.sequence} {frame.kind:<10s} {summary}")
            if frame.terminal:
                print(f"  terminal outcome cost: {frame.outcome.cost:.1f}")

    print("\n=== 8. a second replica answers from the shared store ===")
    with tempfile.TemporaryDirectory() as scratch:
        store = SqliteResultStore(Path(scratch) / "results.db")
        replicas = [create_server(workers=1, store=store) for _ in range(2)]
        for replica in replicas:
            threading.Thread(target=replica.serve_forever, daemon=True).start()
        urls = [f"http://{r.server_address[0]}:{r.server_address[1]}"
                for r in replicas]
        shared = dict(body, name="replicated")
        view = call(urls[0], "POST", "/v1/explain", shared)
        wait_done(urls[0], view["id"])
        dedup = call(urls[1], "POST", "/v1/explain", shared)
        print(f"replica B job {dedup['id']}: state={dedup['state']}, "
              f"store_hit={dedup['store_hit']} (no second search ran)")
        print(f"store stats: {call(urls[1], 'GET', '/healthz')['store']}")
        for replica in replicas:
            replica.shutdown_service()
        store.close()

    print("\n=== final pool statistics ===")
    print(json.dumps(call(base_url, "GET", "/healthz")["jobs"], indent=2))
    server.shutdown_service()


if __name__ == "__main__":
    main()
