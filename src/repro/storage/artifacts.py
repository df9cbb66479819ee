"""Content-addressed artifact store for build products.

Tar-balls produced by the automated builds are stored once per unique content
digest; the same package built twice on the same environment de-duplicates,
while a rebuild on a new environment creates a new artifact.  The store keeps
reference labels so the bookkeeping can answer "which runs used this binary".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro._common import StorageError
from repro.buildsys.tarball import Tarball


@dataclass
class StoredArtifact:
    """A tarball plus the labels (run IDs) referencing it."""

    tarball: Tarball
    labels: Set[str] = field(default_factory=set)

    @property
    def digest(self) -> str:
        """Content digest of the stored tarball."""
        return self.tarball.digest


class ArtifactStore:
    """Content-addressed store of build artifacts."""

    def __init__(self) -> None:
        self._artifacts: Dict[str, StoredArtifact] = {}

    def store(self, tarball: Tarball, label: Optional[str] = None) -> str:
        """Store *tarball* (idempotent) and return its digest."""
        existing = self._artifacts.get(tarball.digest)
        if existing is None:
            existing = StoredArtifact(tarball=tarball)
            self._artifacts[tarball.digest] = existing
        if label is not None:
            existing.labels.add(label)
        return tarball.digest

    def fetch(self, digest: str) -> Tarball:
        """Return the tarball with the given digest."""
        try:
            return self._artifacts[digest].tarball
        except KeyError:
            raise StorageError(f"no artifact with digest {digest!r}") from None

    def exists(self, digest: str) -> bool:
        """Return True if an artifact with *digest* is stored."""
        return digest in self._artifacts

    def remove(self, digest: str) -> Tarball:
        """Remove (overwrite/retire) the artifact with *digest* and return it.

        Consumers holding content-hash references — notably the scheduler's
        build cache — treat a removed digest as gone and must re-materialise
        the artifact instead of serving a dangling reference.
        """
        try:
            return self._artifacts.pop(digest).tarball
        except KeyError:
            raise StorageError(f"no artifact with digest {digest!r}") from None

    def labels_for(self, digest: str) -> List[str]:
        """Return the labels referencing the artifact, sorted."""
        try:
            return sorted(self._artifacts[digest].labels)
        except KeyError:
            raise StorageError(f"no artifact with digest {digest!r}") from None

    def artifacts_for_package(self, package_name: str) -> List[Tarball]:
        """All stored artifacts of the given package, sorted by configuration."""
        return sorted(
            (
                artifact.tarball
                for artifact in self._artifacts.values()
                if artifact.tarball.package_name == package_name
            ),
            key=lambda tarball: (tarball.configuration_key, tarball.package_version),
        )

    def artifacts_for_configuration(self, configuration_key: str) -> List[Tarball]:
        """All stored artifacts built on the given configuration."""
        return sorted(
            (
                artifact.tarball
                for artifact in self._artifacts.values()
                if artifact.tarball.configuration_key == configuration_key
            ),
            key=lambda tarball: tarball.package_name,
        )

    def __len__(self) -> int:
        return len(self._artifacts)

    def total_size_bytes(self) -> int:
        """Summed size of all stored artifacts."""
        return sum(artifact.tarball.size_bytes for artifact in self._artifacts.values())

    def truncate(self, count: int) -> None:
        """Remove every artifact stored after the first *count* (an undo)."""
        for digest in list(self._artifacts)[count:]:
            del self._artifacts[digest]

    def prune_unlabelled(self) -> int:
        """Remove artifacts no run references; returns how many were removed."""
        to_remove = [
            digest for digest, artifact in self._artifacts.items() if not artifact.labels
        ]
        for digest in to_remove:
            del self._artifacts[digest]
        return len(to_remove)


__all__ = ["ArtifactStore", "StoredArtifact"]
