"""End-to-end analysis: load streams, align to one rate, quantize the
continuous ones, and compute the full quantity table into an InfoReport.

The report (see ``report``) carries full configuration provenance, so every
number can be traced to (manifest, config, seed) and regenerated.
"""

from dataclasses import replace

from . import infotheory
from .errors import DataError, check_tuple, check_type, located
from .ingestion import FeatureMatrix, LabelSequence, Manifest, align, load_manifest
from .report import ROLES, AnalysisConfig, InfoReport, StreamSummary


def _assign_roles(specs) -> dict[str, str]:
    """Map stream names to roles V/T/S.

    Explicit names v/t/s win; otherwise a unique labels stream becomes T and
    features fill (S, V) in manifest order; otherwise roles follow manifest
    order ((V, T, S) for three streams, (T, S) for two).
    """
    names = [s.name for s in specs]
    order = ROLES[len(specs)]
    if {name.lower() for name in names} == {role.lower() for role in order}:
        return {name: name.upper() for name in names}
    if [s.kind for s in specs].count("labels") == 1:
        feature_roles = iter(["S", "V"])
        return {s.name: "T" if s.kind == "labels" else next(feature_roles) for s in specs}
    return dict(zip(names, order))


def _prepare(manifest: Manifest, config: AnalysisConfig):
    """The manifest's streams loaded and aligned to one rate and length, in
    manifest order, and that rate."""
    if (count := len(manifest.streams)) < min(ROLES):
        raise DataError(f"analysis needs >= {min(ROLES)} streams, got {count}")
    if count > max(ROLES):
        supported = " or ".join(map(str, ROLES))
        raise DataError(f"reports support {supported} streams; larger sets are out of scope")
    rate = config.target_rate_hz if config.target_rate_hz is not None else manifest.target_rate_hz
    return align([manifest.load_stream(spec) for spec in manifest.streams], rate), rate


def _quantize(spec, stream, config: AnalysisConfig, position: int):
    """Fit one continuous stream; returns (its training labels, summary fields).

    The quantizer and hashlib load here, so a label-only analysis never loads them.
    """
    import hashlib

    from . import quantizer

    k = spec.clusters if spec.clusters is not None else config.clusters
    with located(f"stream {spec.name!r}"):
        cb = quantizer.fit(
            stream,
            k,
            seed=config.seed + position,
            tol=config.tol,
            max_iter=config.max_iter,
            normalize=config.normalize,
        )
        labels = LabelSequence(cb.labels, cb.k, stream.sample_rate_hz, stream.modality_tag)
    digest = hashlib.sha256(quantizer.codebook_to_bytes(cb)).hexdigest()
    return labels, k, digest


def _report(specs, streams, config: AnalysisConfig) -> InfoReport:
    """Quantize the continuous aligned streams and compute the quantity table."""
    roles = _assign_roles(specs)
    by_role, counts = {}, {}  # role -> discretized stream, and its cell counts
    summaries: list[StreamSummary] = []
    for position, (spec, stream) in enumerate(zip(specs, streams)):
        role = roles[spec.name]
        if isinstance(stream, FeatureMatrix):
            labels, k, digest = _quantize(spec, stream, config, position)
            dims = stream.dims
        else:
            labels, k, digest, dims = stream, None, None, None
        by_role[role] = labels
        counts[role] = infotheory.cell_counts([labels.symbols])
        summaries.append(
            StreamSummary(
                name=spec.name,
                role=role,
                kind=spec.kind,
                rows=stream.rows,
                dims=dims,
                clusters=k,
                distinct=counts[role].size,
                codebook_sha256=digest,
            )
        )
    quantities = infotheory.quantity_table(by_role, config.log_base, counts)
    return InfoReport(quantities=quantities, streams=tuple(summaries), config=config)


def _inputs(manifest, config) -> tuple[Manifest, AnalysisConfig]:
    """``manifest``, loaded if it is not a Manifest, and ``config``, the default if None."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    config = AnalysisConfig() if config is None else config
    return manifest, check_type(config, AnalysisConfig, "config")


def analyze(manifest, config: AnalysisConfig | None = None) -> InfoReport:
    """Run the whole estimation pipeline for one manifest.

    Deterministic given (manifest, config): per-stream fit seeds are
    config.seed + the stream's position in the manifest.
    """
    manifest, config = _inputs(manifest, config)
    streams, rate = _prepare(manifest, config)
    return _report(manifest.streams, streams, replace(config, target_rate_hz=rate))


def sweep_clusters(manifest, config: AnalysisConfig | None, ks: list[int]) -> list[InfoReport]:
    """One analysis per cluster count, sharing seed, alignment and streams.

    The streams are loaded and aligned once.  Each k overrides the cluster
    count of every continuous stream (including manifest per-stream values);
    discrete streams are untouched, so their entropies are constant down the
    sweep.
    """
    if not (ks := check_tuple(ks, "ks")):
        raise DataError("sweep needs a non-empty list of cluster counts")
    manifest, config = _inputs(manifest, config)
    configs = [replace(config, clusters=k) for k in ks]  # rejects a bad k before loading
    streams, rate = _prepare(manifest, config)
    specs = tuple(replace(s, clusters=None) for s in manifest.streams)
    return [_report(specs, streams, replace(c, target_rate_hz=rate)) for c in configs]
