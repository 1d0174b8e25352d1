"""Simplified molecular-mechanics force field.

Plays the role of the GAFF/ff14SB force fields used by the paper's AMBER
preparation and MM/GBSA rescoring stages.  Terms:

* harmonic bond stretch around a single reference length;
* Lennard-Jones 12-6 interactions between non-bonded atom pairs;
* Coulomb interactions between partial charges with a distance-dependent
  dielectric (a standard implicit-solvent shortcut).

Energies are in kcal/mol and forces in kcal/mol/Angstrom. The absolute
scale is not meant to be quantitative — only the relative ordering of
conformers and protein-ligand geometries matters for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.molecule import Molecule


@dataclass
class ForceFieldEnergy:
    """Decomposed force-field energy (kcal/mol)."""

    bond: float
    vdw: float
    electrostatic: float

    @property
    def total(self) -> float:
        return float(self.bond + self.vdw + self.electrostatic)


class ForceField:
    """Minimal intramolecular force field with analytic forces."""

    def __init__(
        self,
        bond_k: float = 100.0,
        bond_r0: float = 1.5,
        lj_epsilon: float = 0.15,
        coulomb_constant: float = 332.06,
        dielectric: float = 8.0,
    ) -> None:
        self.bond_k = float(bond_k)
        self.bond_r0 = float(bond_r0)
        self.lj_epsilon = float(lj_epsilon)
        self.coulomb_constant = float(coulomb_constant)
        self.dielectric = float(dielectric)

    # ------------------------------------------------------------------ #
    def energy_components(self, molecule: Molecule) -> ForceFieldEnergy:
        """Return the decomposed energy of the molecule's current conformer."""
        energy, _ = ForceFieldTopology(self, molecule).evaluate(molecule.coordinates, want_forces=False)
        return energy

    def energy_and_forces(self, molecule: Molecule) -> tuple[float, np.ndarray]:
        """Return total energy and per-atom forces (negative gradient)."""
        return ForceFieldTopology(self, molecule).energy_and_forces(molecule.coordinates)

    # ------------------------------------------------------------------ #
    def _compute(self, molecule: Molecule, want_forces: bool) -> tuple[ForceFieldEnergy, np.ndarray]:
        """Scalar golden reference for :class:`ForceFieldTopology` (used by tests only)."""
        coords = molecule.coordinates
        n = molecule.num_atoms
        forces = np.zeros((n, 3))
        bond_energy = 0.0
        bonded_pairs = set()
        for bond in molecule.bonds:
            i, j = bond.i, bond.j
            bonded_pairs.add((min(i, j), max(i, j)))
            delta = coords[i] - coords[j]
            r = np.linalg.norm(delta) + 1e-12
            diff = r - self.bond_r0
            bond_energy += self.bond_k * diff**2
            if want_forces:
                f = -2.0 * self.bond_k * diff * delta / r
                forces[i] += f
                forces[j] -= f

        vdw_energy = 0.0
        elec_energy = 0.0
        if n > 1:
            radii = np.array([a.vdw_radius for a in molecule.atoms])
            charges = np.array([a.partial_charge for a in molecule.atoms])
            delta = coords[:, None, :] - coords[None, :, :]
            dist = np.linalg.norm(delta, axis=-1)
            iu, ju = np.triu_indices(n, k=1)
            mask = np.array([(a, b) not in bonded_pairs for a, b in zip(iu, ju)])
            iu, ju = iu[mask], ju[mask]
            if iu.size:
                r = np.maximum(dist[iu, ju], 0.4)
                sigma = 0.9 * (radii[iu] + radii[ju]) / 2.0
                sr6 = (sigma / r) ** 6
                pair_vdw = 4.0 * self.lj_epsilon * (sr6**2 - sr6)
                vdw_energy = float(pair_vdw.sum())
                qq = charges[iu] * charges[ju]
                pair_elec = self.coulomb_constant * qq / (self.dielectric * r**2)
                elec_energy = float(pair_elec.sum())
                if want_forces:
                    # dE/dr for both terms
                    dvdw = 4.0 * self.lj_epsilon * (-12.0 * sr6**2 + 6.0 * sr6) / r
                    delec = -2.0 * self.coulomb_constant * qq / (self.dielectric * r**3)
                    dtotal = dvdw + delec
                    direction = (coords[iu] - coords[ju]) / r[:, None]
                    pair_force = -dtotal[:, None] * direction
                    np.add.at(forces, iu, pair_force)
                    np.add.at(forces, ju, -pair_force)

        return ForceFieldEnergy(bond=float(bond_energy), vdw=vdw_energy, electrostatic=elec_energy), forces


class ForceFieldTopology:
    """A molecule's force-field topology, compiled once for many conformers.

    Holds everything that coordinates cannot change: the bond index
    arrays, the non-bonded pairs (the upper triangle minus bonded pairs,
    in ``np.triu_indices`` order) and their σ and q·q products, plus the
    index stream that scatters bond and pair forces onto atoms.
    :meth:`energy_and_forces` then works on coordinate arrays only.

    Results are bit-identical to the scalar :meth:`ForceField._compute`
    (see ``docs/docking.md``, "Ligand prep: the compiled force field"):

    * bond lengths come from per-vector dot products (a batched
      ``matmul``), as ``np.linalg.norm`` of a 1-D vector does;
    * the bond term uses ``np.float_power(diff, 2.0)``, the ``pow`` that
      a scalar ``np.float64 ** 2`` calls (array ``** 2`` is ``square``);
    * the bond energy is summed by ``np.cumsum``, a left fold like the
      scalar loop;
    * non-bonded terms are evaluated on the same ordered pair arrays;
    * every atom receives its forces in the scalar order — bonds, then
      the ``i`` side of each pair, then the ``j`` side — through one
      sequential ``np.bincount`` over the concatenated index stream.
    """

    def __init__(self, forcefield: ForceField, molecule: Molecule) -> None:
        self.forcefield = forcefield
        n = molecule.num_atoms
        self.num_atoms = n
        bonds = np.array([(b.i, b.j) for b in molecule.bonds], dtype=np.intp).reshape(-1, 2)
        self.bond_i = bonds[:, 0].copy()
        self.bond_j = bonds[:, 1].copy()

        iu, ju = np.triu_indices(n, k=1)
        bonded = np.zeros((n, n), dtype=bool)
        bonded[bonds.min(axis=1), bonds.max(axis=1)] = True
        keep = ~bonded[iu, ju]
        self.iu, self.ju = iu[keep], ju[keep]

        radii = np.array([a.vdw_radius for a in molecule.atoms])
        charges = np.array([a.partial_charge for a in molecule.atoms])
        self.sigma = 0.9 * (radii[self.iu] + radii[self.ju]) / 2.0
        self.qq = charges[self.iu] * charges[self.ju]

        # Scatter order [i0, j0, i1, j1, ..., iu..., ju...], one entry per
        # Cartesian component: bin 3 * atom + axis of the flattened forces.
        atoms = np.concatenate([bonds.ravel(), self.iu, self.ju])
        self._scatter = (3 * atoms[:, None] + np.arange(3)).ravel()

    def energy_and_forces(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """Return total energy and per-atom forces at ``coords`` ``(num_atoms, 3)``."""
        energy, forces = self.evaluate(coords, want_forces=True)
        return energy.total, forces

    def evaluate(self, coords: np.ndarray, want_forces: bool) -> tuple[ForceFieldEnergy, np.ndarray | None]:
        """Decomposed energy at ``coords``, and the forces if ``want_forces``."""
        ff = self.forcefield
        delta = coords.take(self.bond_i, axis=0) - coords.take(self.bond_j, axis=0)
        r = np.sqrt((delta[:, None, :] @ delta[:, :, None]).ravel()) + 1e-12
        diff = r - ff.bond_r0
        bond_terms = ff.bond_k * np.float_power(diff, 2.0)
        bond_energy = float(np.cumsum(bond_terms)[-1]) if bond_terms.size else 0.0

        vdw_energy = 0.0
        elec_energy = 0.0
        pair_force = np.empty((0, 3))
        if self.iu.size:
            d = coords.take(self.iu, axis=0) - coords.take(self.ju, axis=0)
            r_pair = np.maximum(np.sqrt(np.add.reduce(d * d, axis=-1)), 0.4)
            sr6 = (self.sigma / r_pair) ** 6
            sr12 = sr6**2
            vdw_energy = float((4.0 * ff.lj_epsilon * (sr12 - sr6)).sum())
            elec_energy = float((ff.coulomb_constant * self.qq / (ff.dielectric * r_pair**2)).sum())
            if want_forces:
                dvdw = 4.0 * ff.lj_epsilon * (-12.0 * sr12 + 6.0 * sr6) / r_pair
                delec = -2.0 * ff.coulomb_constant * self.qq / (ff.dielectric * r_pair**3)
                pair_force = -(dvdw + delec)[:, None] * (d / r_pair[:, None])
        energy = ForceFieldEnergy(bond=bond_energy, vdw=vdw_energy, electrostatic=elec_energy)
        if not want_forces:
            return energy, None

        bond_force = -2.0 * ff.bond_k * diff[:, None] * delta / r[:, None]
        interleaved = np.stack((bond_force, -bond_force), axis=1).reshape(-1, 3)
        contributions = np.concatenate((interleaved, pair_force, -pair_force))
        forces = np.bincount(self._scatter, weights=contributions.ravel(), minlength=3 * self.num_atoms)
        return energy, forces.reshape(self.num_atoms, 3)
