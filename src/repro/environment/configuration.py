"""Environment configurations: the unit the sp-system validates against.

An :class:`EnvironmentConfiguration` bundles the three inputs the paper keeps
deliberately separate — the operating system (with word size and compiler) and
the set of installed external software — into one immutable description of a
machine the experiment software is built and validated on.  The five virtual
machine configurations named in the paper (SL5/32bit with gcc4.1 and gcc4.4,
SL5/64bit with gcc4.1 and gcc4.4, SL6/64bit with gcc4.4) are provided by
:func:`sp_system_configurations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro._common import ConfigurationError, stable_digest
from repro.environment.compilers import Compiler, CompilerCatalog
from repro.environment.external import (
    ExternalSoftwareCatalog,
    ExternalSoftwareVersion,
)
from repro.environment.os_catalog import OperatingSystemCatalog, OperatingSystemRelease


@dataclass(frozen=True)
class EnvironmentConfiguration:
    """An immutable description of a build/validation environment.

    Attributes
    ----------
    operating_system:
        The OS release installed on the machine.
    word_size:
        32 or 64 bit userland.
    compiler:
        The compiler used to build the experiment software; not necessarily
        the OS system compiler (SL5 images exist with both gcc 4.1 and 4.4).
    externals:
        Mapping from product name to the installed
        :class:`ExternalSoftwareVersion`.
    """

    operating_system: OperatingSystemRelease
    word_size: int
    compiler: Compiler
    externals: Tuple[ExternalSoftwareVersion, ...] = ()

    def __post_init__(self) -> None:
        if not self.operating_system.supports_word_size(self.word_size):
            raise ConfigurationError(
                f"{self.operating_system.name} has no {self.word_size}-bit images"
            )
        seen_products = set()
        for external in self.externals:
            if external.product in seen_products:
                raise ConfigurationError(
                    f"external product {external.product!r} listed twice"
                )
            seen_products.add(external.product)
            if not external.supports_word_size(self.word_size):
                raise ConfigurationError(
                    f"{external.key} has no {self.word_size}-bit distribution"
                )

    @property
    def label(self) -> str:
        """Short label used in reports, e.g. ``"SL6/64bit gcc4.4"``."""
        return (
            f"{self.operating_system.name}/{self.word_size}bit "
            f"{self.compiler.name}"
        )

    @property
    def key(self) -> str:
        """Filesystem/storage-safe identifier, e.g. ``"SL6_64bit_gcc4.4"``."""
        return (
            f"{self.operating_system.name}_{self.word_size}bit_{self.compiler.name}"
        )

    @property
    def full_label(self) -> str:
        """Label that includes installed external software versions."""
        externals = ", ".join(external.key for external in self.externals)
        return f"{self.label} [{externals}]" if externals else self.label

    def external(self, product: str) -> Optional[ExternalSoftwareVersion]:
        """Return the installed version of *product*, or None."""
        for external in self.externals:
            if external.product == product:
                return external
        return None

    def has_external(self, product: str) -> bool:
        """Return True if *product* is installed in this configuration."""
        return self.external(product) is not None

    def external_map(self) -> Dict[str, str]:
        """Return a ``{product: version}`` mapping of installed externals."""
        return {external.product: external.version for external in self.externals}

    def with_external(self, external: ExternalSoftwareVersion) -> "EnvironmentConfiguration":
        """Return a copy with *external* added or replacing the same product."""
        remaining = tuple(
            existing for existing in self.externals
            if existing.product != external.product
        )
        return replace(self, externals=remaining + (external,))

    def without_external(self, product: str) -> "EnvironmentConfiguration":
        """Return a copy with *product* removed from the installed externals."""
        remaining = tuple(
            existing for existing in self.externals if existing.product != product
        )
        return replace(self, externals=remaining)

    def with_compiler(self, compiler: Compiler) -> "EnvironmentConfiguration":
        """Return a copy using a different compiler."""
        return replace(self, compiler=compiler)

    def with_operating_system(
        self, operating_system: OperatingSystemRelease, word_size: Optional[int] = None
    ) -> "EnvironmentConfiguration":
        """Return a copy on a different OS release (and optionally word size)."""
        new_word_size = word_size if word_size is not None else self.word_size
        if not operating_system.supports_word_size(new_word_size):
            supported = operating_system.word_sizes
            new_word_size = max(supported)
        return replace(
            self, operating_system=operating_system, word_size=new_word_size
        )

    def describe(self) -> Dict[str, object]:
        """Return a JSON-serialisable description of the configuration."""
        return {
            "operating_system": self.operating_system.name,
            "word_size": self.word_size,
            "compiler": self.compiler.name,
            "externals": self.external_map(),
        }

    def differences(self, other: "EnvironmentConfiguration") -> List[str]:
        """Return a human-readable list of differences with *other*.

        The diagnosis engine uses this to decide which of the three inputs
        changed between the last successful validation and a failing one.
        """
        differences: List[str] = []
        if self.operating_system.name != other.operating_system.name:
            differences.append(
                "operating_system: "
                f"{other.operating_system.name} -> {self.operating_system.name}"
            )
        if self.word_size != other.word_size:
            differences.append(f"word_size: {other.word_size} -> {self.word_size}")
        if self.compiler.name != other.compiler.name:
            differences.append(
                f"compiler: {other.compiler.name} -> {self.compiler.name}"
            )
        mine = self.external_map()
        theirs = other.external_map()
        for product in sorted(set(mine) | set(theirs)):
            old = theirs.get(product)
            new = mine.get(product)
            if old != new:
                differences.append(f"external {product}: {old} -> {new}")
        return differences


def configuration_fingerprint(configuration: EnvironmentConfiguration) -> str:
    """Stable content fingerprint of the build-relevant configuration state.

    Deliberately finer-grained than :attr:`EnvironmentConfiguration.key`:
    two configurations sharing an OS/word-size/compiler label but differing
    in installed externals (or a configuration whose compiler or OS release
    was swapped in place by an environment evolution event) must not be
    mistaken for one another.  The build cache keys on it, and the
    validation history ledger records it per cell so a longitudinal query
    can see that "the same" configuration changed underneath an experiment.

    The fingerprint is computed once per configuration instance and kept
    on it (the instance is frozen, so it cannot go stale): the build cache
    re-derives it on every lookup and store, and the history ledger on
    every ingested cell.
    """
    cached = configuration.__dict__.get("_fingerprint")
    if cached is None:
        cached = _configuration_fingerprint(configuration)
        # Not a dataclass field: equality, hashing and replace() ignore it.
        object.__setattr__(configuration, "_fingerprint", cached)
    return cached


def _configuration_fingerprint(configuration: EnvironmentConfiguration) -> str:
    return stable_digest(
        configuration.key,
        configuration.operating_system.name,
        configuration.operating_system.abi_level,
        configuration.word_size,
        configuration.compiler.family,
        configuration.compiler.version,
        configuration.compiler.strictness,
        sorted(configuration.external_map().items()),
    )



class EnvironmentFactory:
    """Convenience factory assembling configurations from the catalogues."""

    def __init__(
        self,
        os_catalog: Optional[OperatingSystemCatalog] = None,
        compiler_catalog: Optional[CompilerCatalog] = None,
        external_catalog: Optional[ExternalSoftwareCatalog] = None,
    ) -> None:
        self.os_catalog = os_catalog or OperatingSystemCatalog()
        self.compiler_catalog = compiler_catalog or CompilerCatalog()
        self.external_catalog = external_catalog or ExternalSoftwareCatalog()

    def create(
        self,
        operating_system: str,
        word_size: int,
        compiler: str,
        externals: Optional[Mapping[str, str]] = None,
    ) -> EnvironmentConfiguration:
        """Build a configuration from catalogue names and versions."""
        os_release = self.os_catalog.get(operating_system)
        compiler_release = self.compiler_catalog.get(compiler)
        resolved: List[ExternalSoftwareVersion] = []
        for product, version in (externals or {}).items():
            resolved.append(self.external_catalog.get(product, version))
        return EnvironmentConfiguration(
            operating_system=os_release,
            word_size=word_size,
            compiler=compiler_release,
            externals=tuple(resolved),
        )


#: External software installed on every sp-system virtual machine image.
DEFAULT_EXTERNALS_32BIT: Dict[str, str] = {
    "ROOT": "5.34",
    "CERNLIB": "2006",
    "GEANT3": "3.21",
    "MCGEN": "1.4",
    "MySQL": "5.0",
}

DEFAULT_EXTERNALS_64BIT: Dict[str, str] = {
    "ROOT": "5.34",
    "CERNLIB": "2006",
    "GEANT3": "3.21",
    "MCGEN": "1.4",
    "MySQL": "5.5",
}


def sp_system_configurations(
    factory: Optional[EnvironmentFactory] = None,
) -> List[EnvironmentConfiguration]:
    """Return the five virtual machine configurations named in the paper.

    "Within the current sp-system there are virtual machines with five
    different configurations: SL5/32bit with gcc4.1 and gcc4.4, SL5/64bit
    with gcc4.1 and gcc4.4, SL6/64bit with gcc4.4."
    """
    factory = factory or EnvironmentFactory()
    specs = [
        ("SL5", 32, "gcc4.1", DEFAULT_EXTERNALS_32BIT),
        ("SL5", 32, "gcc4.4", DEFAULT_EXTERNALS_32BIT),
        ("SL5", 64, "gcc4.1", DEFAULT_EXTERNALS_64BIT),
        ("SL5", 64, "gcc4.4", DEFAULT_EXTERNALS_64BIT),
        ("SL6", 64, "gcc4.4", DEFAULT_EXTERNALS_64BIT),
    ]
    return [
        factory.create(os_name, word_size, compiler, externals)
        for os_name, word_size, compiler, externals in specs
    ]


def sp_system_root_versions() -> List[str]:
    """The ROOT versions installed on the sp-system (paper section 3.1)."""
    return ["5.26", "5.28", "5.30", "5.32", "5.34"]


def next_generation_configuration(
    factory: Optional[EnvironmentFactory] = None,
) -> EnvironmentConfiguration:
    """The SL7 + ROOT 6 configuration named as the "next challenge"."""
    factory = factory or EnvironmentFactory()
    externals = dict(DEFAULT_EXTERNALS_64BIT)
    externals["ROOT"] = "6.02"
    externals["MCGEN"] = "2.0"
    return factory.create("SL7", 64, "gcc4.8", externals)


__all__ = [
    "EnvironmentConfiguration",
    "EnvironmentFactory",
    "configuration_fingerprint",
    "sp_system_configurations",
    "sp_system_root_versions",
    "next_generation_configuration",
    "DEFAULT_EXTERNALS_32BIT",
    "DEFAULT_EXTERNALS_64BIT",
]
