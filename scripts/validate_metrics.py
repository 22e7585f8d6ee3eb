#!/usr/bin/env python3
"""Validate a Prometheus text exposition written by --metrics-out.

Usage: validate_metrics.py METRICS.prom [--require SUBSTR ...]
       validate_metrics.py --self-test

METRICS.prom is the host-metrics exposition written by any bench
binary's --metrics-out (src/obs/metrics.cc,
docs/OBSERVABILITY.md). The checks are the subset of the Prometheus
text-format contract the simulator relies on, so a scrape-breaking
regression in toPrometheus fails CI before it reaches a dashboard:

  - every non-comment line is `name value` or `name{labels} value`,
    names and label keys match the Prometheus grammar, and values are
    plain integers (the exposition is exact-integer by design);
  - every sample's family has a preceding `# TYPE` line, each family
    declares exactly one TYPE, and the type is counter, gauge, or
    histogram;
  - counter family names end in `_total`;
  - no two samples share a (name, label set) series;
  - histogram families are well-formed: le bounds strictly increase,
    cumulative bucket counts never decrease, the last bucket's le is
    +Inf and its count equals the `_count` sample, and `_sum` and
    `_count` are present exactly once.

--require SUBSTR (repeatable) additionally demands at least one family
whose name contains SUBSTR -- CI uses it to assert the pool, arena,
stage and plane-count instrumentation actually recorded.

--self-test runs the validator against built-in good and bad fixtures
and exits non-zero on any misclassification (wired into lint.sh so the
validator itself cannot rot silently).

Only the Python standard library is used (CI installs nothing).
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
LABEL_RE = re.compile(r'^(?P<key>[^=]+)="(?P<value>[^"]*)"$')
VALID_TYPES = ("counter", "gauge", "histogram")
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def fatal(message):
    print("validate_metrics: error: " + message, file=sys.stderr)
    sys.exit(1)


def family_of(name, types):
    """The TYPE family a sample name belongs to.

    Histogram samples use suffixed names (family_bucket / family_sum /
    family_count); everything else samples the family name directly."""
    if name in types:
        return name
    for suffix in HIST_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def parse_labels(text, line_no, errors):
    """`key="value",...` -> dict, or None on malformed syntax."""
    labels = {}
    if text is None or text == "":
        return labels
    for part in text.split(","):
        match = LABEL_RE.match(part)
        if not match or not LABEL_KEY_RE.match(match.group("key")):
            errors.append("line {}: malformed label '{}'".format(
                line_no, part))
            return None
        key = match.group("key")
        if key in labels:
            errors.append("line {}: duplicate label key '{}'".format(
                line_no, key))
            return None
        labels[key] = match.group("value")
    return labels


def check_histogram(family, samples, errors):
    """Validate one histogram family's bucket/sum/count samples."""
    buckets = []
    sums = []
    counts = []
    for name, labels, value, line_no in samples:
        if name == family + "_bucket":
            if "le" not in labels:
                errors.append("line {}: histogram bucket without "
                              "le label".format(line_no))
                continue
            buckets.append((labels["le"], value, line_no))
        elif name == family + "_sum":
            sums.append(value)
        elif name == family + "_count":
            counts.append(value)
    if len(sums) != 1 or len(counts) != 1:
        errors.append("histogram '{}' needs exactly one _sum and one "
                      "_count sample".format(family))
        return
    if not buckets:
        errors.append("histogram '{}' has no buckets".format(family))
        return
    if buckets[-1][0] != "+Inf":
        errors.append("histogram '{}': last bucket le is '{}', not "
                      "+Inf".format(family, buckets[-1][0]))
    previous_le = None
    previous_count = None
    for le, value, line_no in buckets:
        if le != "+Inf":
            try:
                le_num = int(le)
            except ValueError:
                errors.append("line {}: non-integer le '{}'".format(
                    line_no, le))
                continue
            if previous_le is not None and le_num <= previous_le:
                errors.append("line {}: le '{}' not increasing".format(
                    line_no, le))
            previous_le = le_num
        if previous_count is not None and value < previous_count:
            errors.append("line {}: bucket count {} decreased from "
                          "{}".format(line_no, value, previous_count))
        previous_count = value
    if buckets[-1][0] == "+Inf" and buckets[-1][1] != counts[0]:
        errors.append("histogram '{}': +Inf bucket {} != _count "
                      "{}".format(family, buckets[-1][1], counts[0]))


def validate(text):
    """All contract violations in @p text, as a list of messages."""
    errors = []
    types = {}            # family -> declared type
    samples = []          # (name, labels, value, line_no)
    series_seen = set()   # (name, sorted label items)
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line == "":
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append("line {}: malformed comment '{}'".format(
                    line_no, line))
                continue
            if parts[1] == "TYPE":
                family, kind = parts[2], parts[3] if len(parts) > 3 else ""
                if not NAME_RE.match(family):
                    errors.append("line {}: bad family name "
                                  "'{}'".format(line_no, family))
                    continue
                if kind not in VALID_TYPES:
                    errors.append("line {}: unknown type '{}'".format(
                        line_no, kind))
                    continue
                if family in types:
                    errors.append("line {}: duplicate TYPE for "
                                  "'{}'".format(line_no, family))
                    continue
                if kind == "counter" and not family.endswith("_total"):
                    errors.append("line {}: counter '{}' does not end "
                                  "in _total".format(line_no, family))
                types[family] = kind
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            errors.append("line {}: malformed sample '{}'".format(
                line_no, line))
            continue
        name = match.group("name")
        labels = parse_labels(match.group("labels"), line_no, errors)
        if labels is None:
            continue
        try:
            value = int(match.group("value"))
        except ValueError:
            errors.append("line {}: non-integer value '{}'".format(
                line_no, match.group("value")))
            continue
        family = family_of(name, types)
        if family is None:
            errors.append("line {}: sample '{}' has no preceding "
                          "TYPE".format(line_no, name))
            continue
        if name != family and types[family] != "histogram":
            errors.append("line {}: suffixed sample '{}' on "
                          "non-histogram family '{}'".format(
                              line_no, name, family))
            continue
        series = (name, tuple(sorted(labels.items())))
        if series in series_seen:
            errors.append("line {}: duplicate series {}".format(
                line_no, name))
            continue
        series_seen.add(series)
        samples.append((name, labels, value, line_no))

    for family, kind in types.items():
        if kind == "histogram":
            hist_samples = [s for s in samples
                            if s[0].startswith(family + "_")]
            check_histogram(family, hist_samples, errors)
    return errors


GOOD_FIXTURE = """\
# HELP antsim_runner_units_total simulated units completed
# TYPE antsim_runner_units_total counter
antsim_runner_units_total 12
# HELP antsim_pool_worker_busy_ns_total worker busy nanoseconds
# TYPE antsim_pool_worker_busy_ns_total counter
antsim_pool_worker_busy_ns_total{worker="0"} 100
antsim_pool_worker_busy_ns_total{worker="1"} 90
# HELP antsim_pool_workers largest pool worker count seen
# TYPE antsim_pool_workers gauge
antsim_pool_workers 3
# HELP antsim_unit_wall_ns wall nanoseconds per unit
# TYPE antsim_unit_wall_ns histogram
antsim_unit_wall_ns_bucket{le="0"} 0
antsim_unit_wall_ns_bucket{le="1"} 2
antsim_unit_wall_ns_bucket{le="3"} 5
antsim_unit_wall_ns_bucket{le="+Inf"} 6
antsim_unit_wall_ns_sum 14
antsim_unit_wall_ns_count 6
"""

BAD_FIXTURES = [
    ("sample without TYPE", "antsim_orphan_total 1\n"),
    ("counter not _total",
     "# HELP antsim_bad a counter\n"
     "# TYPE antsim_bad counter\n"
     "antsim_bad 1\n"),
    ("duplicate series",
     "# HELP antsim_x_total x\n"
     "# TYPE antsim_x_total counter\n"
     "antsim_x_total 1\n"
     "antsim_x_total 2\n"),
    ("non-integer value",
     "# HELP antsim_x_total x\n"
     "# TYPE antsim_x_total counter\n"
     "antsim_x_total nan\n"),
    ("decreasing bucket counts",
     "# HELP antsim_h h\n"
     "# TYPE antsim_h histogram\n"
     "antsim_h_bucket{le=\"1\"} 5\n"
     "antsim_h_bucket{le=\"3\"} 4\n"
     "antsim_h_bucket{le=\"+Inf\"} 4\n"
     "antsim_h_sum 9\n"
     "antsim_h_count 4\n"),
    ("non-increasing le",
     "# HELP antsim_h h\n"
     "# TYPE antsim_h histogram\n"
     "antsim_h_bucket{le=\"3\"} 1\n"
     "antsim_h_bucket{le=\"3\"} 1\n"
     "antsim_h_bucket{le=\"+Inf\"} 1\n"
     "antsim_h_sum 2\n"
     "antsim_h_count 1\n"),
    ("+Inf bucket != count",
     "# HELP antsim_h h\n"
     "# TYPE antsim_h histogram\n"
     "antsim_h_bucket{le=\"1\"} 1\n"
     "antsim_h_bucket{le=\"+Inf\"} 1\n"
     "antsim_h_sum 1\n"
     "antsim_h_count 2\n"),
    ("missing +Inf bucket",
     "# HELP antsim_h h\n"
     "# TYPE antsim_h histogram\n"
     "antsim_h_bucket{le=\"1\"} 1\n"
     "antsim_h_sum 1\n"
     "antsim_h_count 1\n"),
    ("malformed label",
     "# HELP antsim_x_total x\n"
     "# TYPE antsim_x_total counter\n"
     "antsim_x_total{worker=0} 1\n"),
    ("unknown type",
     "# HELP antsim_x x\n"
     "# TYPE antsim_x summary\n"
     "antsim_x 1\n"),
]


def self_test():
    failures = 0
    errors = validate(GOOD_FIXTURE)
    if errors:
        print("validate_metrics: self-test: good fixture rejected:")
        for error in errors:
            print("  " + error)
        failures += 1
    for label, fixture in BAD_FIXTURES:
        if not validate(fixture):
            print("validate_metrics: self-test: bad fixture accepted: "
                  + label)
            failures += 1
    if failures:
        return 1
    print("validate_metrics: self-test passed ({} fixtures)".format(
        1 + len(BAD_FIXTURES)))
    return 0


def main(argv):
    args = list(argv[1:])
    if args == ["--self-test"]:
        return self_test()
    required = []
    while "--require" in args:
        index = args.index("--require")
        if index + 1 >= len(args):
            fatal("--require expects a substring")
        required.append(args[index + 1])
        del args[index:index + 2]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        fatal("cannot read {}: {}".format(path, err))

    errors = validate(text)
    families = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split(" ")[2])
    for substr in required:
        if not any(substr in family for family in families):
            errors.append("no metric family contains required "
                          "'{}'".format(substr))

    if errors:
        print("validate_metrics: {} FAILS ({} violations):".format(
            path, len(errors)))
        for error in errors[:20]:
            print("  " + error)
        if len(errors) > 20:
            print("  ... and {} more".format(len(errors) - 20))
        return 1
    print("validate_metrics: {} ok ({} families, {} required "
          "substrings)".format(path, len(families), len(required)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
