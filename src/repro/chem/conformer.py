"""3-D conformer embedding and light force-field minimization.

Stands in for the MOE "generate and energetically minimize 3D structures"
step of the paper's ligand preparation pipeline. The embedding is a
sequential distance-geometry heuristic (place each atom at bond length
from its tree parent while avoiding clashes with already-placed atoms)
followed by a few steepest-descent steps of the simplified force field.
"""

from __future__ import annotations

import numpy as np

from repro.chem.forcefield import ForceField, ForceFieldTopology
from repro.chem.molecule import Molecule
from repro.utils.rng import ensure_rng

#: Reference covalent bond length used by the embedder (Angstroms).
BOND_LENGTH = 1.5


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    """Uniformly-distributed random 3-D rotation matrix (via QR of a Gaussian)."""
    matrix = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(matrix)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def embed_3d(molecule: Molecule, rng=None, bond_length: float = BOND_LENGTH) -> Molecule:
    """Return a copy of ``molecule`` with generated 3-D coordinates.

    Atoms are placed along a breadth-first traversal of the covalent
    graph: each atom sits at ``bond_length`` from its parent in the
    direction that maximizes the distance to already-placed atoms,
    producing extended, clash-free (if not physically exact) conformers.
    Disconnected components are offset from each other.
    """
    rng = ensure_rng(rng)
    out = molecule.copy()
    if out.num_atoms == 0:
        return out
    coords = np.zeros((out.num_atoms, 3))
    placed = np.zeros(out.num_atoms, dtype=bool)

    component_offset = np.zeros(3)
    for component in out.connected_components():
        root = component[0]
        coords[root] = component_offset
        placed[root] = True
        queue = [root]
        while queue:
            current = queue.pop(0)
            for neighbour in out.neighbors(current):
                if placed[neighbour]:
                    continue
                direction = _best_direction(coords[placed], coords[current], rng)
                coords[neighbour] = coords[current] + bond_length * direction
                placed[neighbour] = True
                queue.append(neighbour)
        # shift the next component well away from this one
        extent = np.abs(coords[placed]).max() if placed.any() else 0.0
        component_offset = component_offset + np.array([extent + 5.0, 0.0, 0.0])

    out.set_coordinates(coords)
    return out


def _best_direction(existing: np.ndarray, origin: np.ndarray, rng: np.random.Generator, candidates: int = 12) -> np.ndarray:
    """Pick, among random unit vectors, the one keeping the new atom farthest from existing atoms."""
    best_dir = None
    best_score = -np.inf
    for _ in range(candidates):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction) + 1e-12
        candidate = origin + BOND_LENGTH * direction
        if existing.size:
            score = np.min(np.linalg.norm(existing - candidate, axis=1))
        else:
            score = 1.0
        if score > best_score:
            best_score = score
            best_dir = direction
    return best_dir


def minimize_conformer(
    molecule: Molecule,
    forcefield: ForceField | None = None,
    max_steps: int = 50,
    step_size: float = 0.02,
    tolerance: float = 1e-3,
) -> tuple[Molecule, float]:
    """Steepest-descent minimization of the conformer under ``forcefield``.

    Returns the relaxed molecule and its final force-field energy. The
    step size is adaptive: halved when a step increases the energy. The
    topology is compiled once and the descent iterates on coordinate
    arrays; the molecule's atoms are written once, at the end.
    """
    forcefield = forcefield or ForceField()
    out = molecule.copy()
    topology = ForceFieldTopology(forcefield, out)
    coords = out.coordinates
    energy, forces = topology.energy_and_forces(coords)
    step = float(step_size)
    for _ in range(int(max_steps)):
        grad_norm = np.linalg.norm(forces)
        if grad_norm < tolerance:
            break
        trial = coords + step * forces / (grad_norm + 1e-12)
        new_energy, new_forces = topology.energy_and_forces(trial)
        if new_energy < energy:
            coords, energy, forces = trial, new_energy, new_forces
            step *= 1.1
        else:
            step *= 0.5
            if step < 1e-5:
                break
    out.set_coordinates(coords)
    return out, float(energy)
