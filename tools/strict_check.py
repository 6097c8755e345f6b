"""Strict driver-protocol mirror: run every queries() entry that has an
oracle_sql() twin at a given SF, and compare rows + schema + DTYPE-EXACT
values the way the driver's hash does (sort columns by name, sort rows,
then require identical dtype kind/width and equal values: floats within an
absolute tolerance of ATOL = 1e-9, every other value exactly equal; the
failure examples come from the same per-row check).

Usage: python tools/strict_check.py [sf_dir] [query_name ...]
Writes /tmp/strict_check.json with per-query verdicts.
"""

import json
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ATOL = 1e-9

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _to_pandas(res):
    import pyarrow as pa

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return pd.DataFrame(res)


def _normalize(df):
    df = pd.DataFrame(df)
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _dtype_tag(s: pd.Series) -> str:
    dt = s.dtype
    if pd.api.types.is_datetime64_any_dtype(dt):
        return str(dt)
    return str(dt)


def _same_values(av, bv) -> np.ndarray:
    """Per-row verdict of the value check: floats within ATOL, every other
    value exactly equal; None equals None and NaN equals NaN."""
    if np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
        return np.isclose(av.astype(float), bv.astype(float), rtol=0, atol=ATOL, equal_nan=True)
    return np.array(
        [bool(x == y or (x is None and y is None) or (x != x and y != y)) for x, y in zip(av, bv)],
        dtype=bool,
    )


def compare(name, ray_df, sql_df):
    a, b = _normalize(ray_df), _normalize(sql_df)
    out = {"rows_match": len(a) == len(b), "schema_match": list(a.columns) == list(b.columns),
           "dtype_match": True, "value_match": True, "detail": []}
    if not out["rows_match"] or not out["schema_match"]:
        out["detail"].append(f"rows {len(a)} vs {len(b)}; cols {list(a.columns)} vs {list(b.columns)}")
        return out
    for col in a.columns:
        ta, tb = _dtype_tag(a[col]), _dtype_tag(b[col])
        if ta != tb:
            out["dtype_match"] = False
            out["detail"].append(f"dtype {col}: engine={ta} oracle={tb}")
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        try:
            same = _same_values(av, bv)
        except Exception as e:  # noqa: BLE001
            out["value_match"] = False
            out["detail"].append(f"value-cmp error {col}: {e}")
            continue
        if not same.all():
            out["value_match"] = False
            bad = [(av[i], bv[i]) for i in np.flatnonzero(~same)[:2]]
            out["detail"].append(f"value {col}: e.g. {bad}")
    return out


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 and os.path.isdir(sys.argv[1]) else "/root/testdata/sf0.01"
    only = set(a for a in sys.argv[1:] if not os.path.isdir(a))
    ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as E

    qs, sqls = E.queries(), E.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    results, n_red = {}, 0
    names = [n for n in qs if n in sqls and (not only or n in only)]
    for i, name in enumerate(names):
        t0 = time.time()
        try:
            ray_df = _to_pandas(qs[name](sf_dir))
            sql_df = con.execute(sqls[name]).fetchdf()
            r = compare(name, ray_df, sql_df)
        except Exception as e:  # noqa: BLE001
            r = {"rows_match": False, "schema_match": False, "dtype_match": False,
                 "value_match": False, "detail": [f"ERROR: {type(e).__name__}: {e}"]}
        r["sec"] = round(time.time() - t0, 2)
        green = all(r[k] for k in ("rows_match", "schema_match", "dtype_match", "value_match"))
        if not green:
            n_red += 1
            print(f"[{i+1}/{len(names)}] RED  {name}: {r['detail'][:3]}", flush=True)
        results[name] = r
    print(f"\n{len(names) - n_red}/{len(names)} strict-green at {sf_dir}")
    with open("/tmp/strict_check.json", "w") as f:
        json.dump(results, f, indent=1)
    ray.shutdown()
    sys.exit(1 if n_red else 0)


if __name__ == "__main__":
    main()
