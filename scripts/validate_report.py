#!/usr/bin/env python3
"""Validate a JSON document against docs/report_schema.json.

Usage: validate_report.py SCHEMA.json DOCUMENT.json

DOCUMENT.json may be either the merged BENCH_antsim.json from
scripts/bench_all.sh (validated against the schema root) or a single
bench --json report (validated against the schema's $defs/report);
the two are told apart by the merged-only "runs" key.

Implements the small, self-contained subset of JSON Schema the report
schema actually uses -- type, properties, required, items,
additionalProperties, enum, minimum, and local $ref -- because the CI
containers have no jsonschema package and must not install one.

On top of the structural check, two semantic laws are enforced:

 1. every "stall_attribution" entry found anywhere in the document:
    each row (per layer and the total) must satisfy
        active + startup + idle_scan + imbalance == cycles
    exactly. The C++ side builds the decomposition saturating so the
    sum holds by construction (src/report/report.cc stallBreakdown); a
    report violating it was produced by a buggy or incompatible writer.
 2. every "host_metrics" histogram (metered runs, --metrics-out) must
    satisfy count == sum(bins): the producer records every sample into
    exactly one bucket (src/obs/metrics.hh histRecord), so a mismatch
    means a corrupted or hand-edited snapshot.

Exits 0 when the document conforms, 1 with every violation listed
otherwise.
"""

import json
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is a subclass of int in Python; keep the two distinct so a
    # schema asking for an integer rejects true/false.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class Validator:
    def __init__(self, schema):
        self.root = schema
        self.errors = []

    def resolve(self, ref):
        if not ref.startswith("#/"):
            raise ValueError("only local $refs are supported: " + ref)
        node = self.root
        for part in ref[2:].split("/"):
            node = node[part]
        return node

    def fail(self, path, message):
        self.errors.append("{}: {}".format(path or "$", message))

    def check(self, schema, value, path):
        if "$ref" in schema:
            schema = self.resolve(schema["$ref"])

        expected = schema.get("type")
        if expected is not None and not TYPE_CHECKS[expected](value):
            self.fail(path, "expected {}, got {}".format(
                expected, type(value).__name__))
            return

        if "enum" in schema and value not in schema["enum"]:
            self.fail(path, "value {!r} not in {}".format(
                value, schema["enum"]))
        if "minimum" in schema and isinstance(value, (int, float)) \
                and not isinstance(value, bool) \
                and value < schema["minimum"]:
            self.fail(path, "value {} below minimum {}".format(
                value, schema["minimum"]))

        if isinstance(value, dict):
            for key in schema.get("required", []):
                if key not in value:
                    self.fail(path, "missing required key '{}'".format(key))
            properties = schema.get("properties", {})
            additional = schema.get("additionalProperties")
            for key, item in value.items():
                child = "{}.{}".format(path, key) if path else key
                if key in properties:
                    self.check(properties[key], item, child)
                elif isinstance(additional, dict):
                    self.check(additional, item, child)
                elif additional is False:
                    self.fail(path, "unexpected key '{}'".format(key))

        if isinstance(value, list):
            items = schema.get("items")
            if isinstance(items, dict):
                for index, item in enumerate(value):
                    self.check(items, item, "{}[{}]".format(path, index))


STALL_COMPONENTS = ("active", "startup", "idle_scan", "imbalance")


def check_stall_row(row, path, errors):
    if not isinstance(row, dict):
        return
    try:
        total = sum(row[c] for c in STALL_COMPONENTS)
        cycles = row["cycles"]
    except (KeyError, TypeError):
        return  # structural validation already reported the shape
    if total != cycles:
        errors.append(
            "{}: stall components sum to {} but cycles is {} "
            "(layer '{}')".format(path, total, cycles,
                                  row.get("layer", "?")))


def check_stall_sums(node, path, errors):
    """Recursively enforce the stall-sum law on every
    stall_attribution section in the document (top-level reports and
    reports nested under runs.*)."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = "{}.{}".format(path, key) if path else key
            if key == "stall_attribution" and isinstance(value, list):
                for index, entry in enumerate(value):
                    if not isinstance(entry, dict):
                        continue
                    base = "{}[{}]".format(child, index)
                    for li, row in enumerate(entry.get("layers", [])):
                        check_stall_row(
                            row, "{}.layers[{}]".format(base, li), errors)
                    check_stall_row(
                        entry.get("total"), base + ".total", errors)
            else:
                check_stall_sums(value, child, errors)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            check_stall_sums(item, "{}[{}]".format(path, index), errors)


def check_host_metrics(node, path, errors):
    """Recursively enforce count == sum(bins) on every host_metrics
    histogram (top-level reports and reports nested under runs.*)."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = "{}.{}".format(path, key) if path else key
            if key == "host_metrics" and isinstance(value, dict):
                for index, hist in enumerate(
                        value.get("histograms", [])):
                    if not isinstance(hist, dict):
                        continue
                    bins = hist.get("bins")
                    count = hist.get("count")
                    if not isinstance(bins, list) or \
                            not isinstance(count, int):
                        continue  # structural validation reports shape
                    total = sum(b for b in bins if isinstance(b, int))
                    if total != count:
                        errors.append(
                            "{}.histograms[{}]: bins sum to {} but "
                            "count is {} ('{}')".format(
                                child, index, total, count,
                                hist.get("name", "?")))
            else:
                check_host_metrics(value, child, errors)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            check_host_metrics(item, "{}[{}]".format(path, index), errors)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schema_path, doc_path = argv[1], argv[2]
    try:
        with open(schema_path, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
        with open(doc_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print("validate_report: error: {}".format(err), file=sys.stderr)
        return 1

    validator = Validator(schema)
    # The schema's root describes the merged BENCH_antsim.json; a
    # single bench --json report matches its $defs/report instead.
    # Distinguish by the merged-only "runs" key.
    if isinstance(document, dict) and "runs" not in document \
            and "$defs" in schema and "report" in schema["$defs"]:
        validator.check(schema["$defs"]["report"], document, "")
    else:
        validator.check(schema, document, "")
    check_stall_sums(document, "", validator.errors)
    check_host_metrics(document, "", validator.errors)
    if validator.errors:
        print("validate_report: {} FAILS {} ({} violations):".format(
            doc_path, schema_path, len(validator.errors)))
        for error in validator.errors:
            print("  " + error)
        return 1
    print("validate_report: {} conforms to {}".format(doc_path, schema_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
