"""Serving: from a fitted PFR to a versioned, cached transform service.

The paper's deployability claim (§3.3) is that once PFR is fitted, unseen
individuals are mapped into the fair representation with no pairwise
judgments at test time. This example walks the full production path that
claim enables:

1. fit PFR on a training split (as in ``quickstart.py``);
2. register it in a versioned on-disk model registry;
3. stand up a ``TransformService`` and serve a held-out batch through the
   chunked, cached bulk path;
4. serve concurrent single-row requests from many threads, each checked
   against the bulk result;
5. inspect the service counters and registry manifest.

Run:  python examples/serving_pipeline.py
"""

import tempfile
import threading

import numpy as np

from repro import PFR, simulate_admissions
from repro.experiments import within_group_ranking_scores
from repro.graphs import between_group_quantile_graph
from repro.metrics import restrict_graph
from repro.ml import StandardScaler, train_test_split
from repro.serving import ModelRegistry, TransformService


def main():
    # --- 1. fit (identical to the quickstart) ----------------------------
    data = simulate_admissions(300, seed=7)
    X = StandardScaler().fit_transform(data.X)
    scores = within_group_ranking_scores(data.nonprotected_view(), data.y, data.s)
    w_fair = between_group_quantile_graph(scores, data.s, n_quantiles=10)
    train, test = train_test_split(
        np.arange(data.n_samples), test_size=0.3, stratify=data.y, seed=0
    )
    pfr = PFR(n_components=2, gamma=0.9, exclude_columns=data.protected_columns)
    pfr.fit(X[train], restrict_graph(w_fair, train))

    with tempfile.TemporaryDirectory() as root:
        # --- 2. register as a versioned artifact -------------------------
        registry = ModelRegistry(root)
        record = registry.register("pfr-admissions", pfr)
        print(f"registered {record.spec}: {record.model_type}, "
              f"{record.n_features_in} features, "
              f"repro {record.library_version}")

        # --- 3. bulk path: transform the held-out split ------------------
        service = TransformService(registry)
        Z_test = service.transform("pfr-admissions@latest", X[test])
        print(f"bulk transform    : {Z_test.shape[0]} rows -> "
              f"{Z_test.shape[1]}-d fair representation")

        # Repeated traffic is served from the LRU cache (no matmul):
        service.transform("pfr-admissions@latest", X[test])

        # --- 4. online path: concurrent single-row clients ---------------
        rows = X[test][:16]
        results = [None] * len(rows)

        def client(i):
            results[i] = service.transform_one("pfr-admissions", rows[i])

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(len(rows))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result, expected in zip(results, Z_test[:16]):
            np.testing.assert_allclose(result, expected, atol=1e-9)
        print(f"online rows       : {len(rows)} concurrent single-row "
              "requests, each equal to its bulk result")

        # --- 5. observability --------------------------------------------
        totals = service.stats()["totals"]
        print(f"service counters  : {totals['rows']} rows, "
              f"{totals['cache_hits']} cache hits, "
              f"{totals['cache_misses']} misses")
        print(f"registry versions : "
              f"{[r.spec for r in registry.versions('pfr-admissions')]}")


if __name__ == "__main__":
    main()
