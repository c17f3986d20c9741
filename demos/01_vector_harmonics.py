"""
Vector spherical harmonics: the basis, its norms, and the conventions.

Three families span vector fields on the sphere: Y_lm rhat (radial),
Psi_lm = r grad Y_lm and Phi_lm = r x grad Y_lm (tangential).  With fully
normalized scalar harmonics the surface inner products are 1 for the
radial family and l(l+1) for both tangential ones, and the families are
mutually orthogonal.  Each basis member below is a SpectralField holding
the constant profile 1 in one channel of one mode, evaluated with
synthesize_at or synthesize.
"""

import numpy as np

from divcurl.frames import sph_to_cart_points
from divcurl.grids import AngularGrid, RadialGrid, surface_integral
from divcurl.transform import SpectralField, synthesize, synthesize_at

rad = RadialGrid([1.0, 2.0], 2)     # the profiles are constant in r
CHANNEL = {"Y": 0, "Psi": 1, "Phi": 2}


def member(kind, l, m, L_max):
    S = SpectralField(rad, L_max)
    S.set_mode(l, m, CHANNEL[kind], np.ones(rad.n_r))
    return S


############################################
# A scalar harmonic at a point, against the closed form

theta, phi = np.pi / 3, np.pi / 4
pt = sph_to_cart_points(1.0, theta, phi)
# the radial member Y_2^1 rhat, dotted with rhat
y21 = synthesize_at(member("Y", 2, 1, 2), pt[None])[0] @ pt
closed = -np.sqrt(15.0 / (8.0 * np.pi)) * np.sin(theta) * np.cos(theta) \
    * np.exp(1j * phi)
print("Y_2^1(pi/3, pi/4)      =", y21)
print("closed form            =", closed)

############################################
# Surface gram matrix of a small band

ang = AngularGrid(8, 15)            # Gauss-Legendre x uniform, exact to l=7

members = []
labels = []
for kind in ("Y", "Psi", "Phi"):
    for l in range(4):
        if l == 0 and kind != "Y":
            continue
        for m in range(-l, l + 1):
            # samples (n_theta, n_phi, 3) of (v_r, v_theta, v_phi) at one radius
            members.append(synthesize(member(kind, l, m, 3), ang).values[0])
            labels.append((kind, l, m))

n = len(members)
gram = np.empty((n, n), dtype=complex)
for a in range(n):
    for b in range(n):
        dens = (members[a] * np.conj(members[b])).sum(axis=-1)
        gram[a, b] = surface_integral(ang, dens)

want = np.diag([1.0 if k == "Y" else l * (l + 1.0) for k, l, m in labels])
print("\nbasis members          =", n)
print("max |gram - expected|  = %.3e" % np.abs(gram - want).max())

############################################
# The uniform field zhat in this basis

# zhat = cos(theta) rhat - sin(theta) thetahat picks up the single mode
# (1, 0) in both the Y and Psi channels, with coefficient sqrt(4 pi / 3).
T = np.meshgrid(ang.theta, ang.phi, indexing="ij")[0]
zhat = np.zeros(T.shape + (3,), dtype=complex)
zhat[..., 0] = np.cos(T)
zhat[..., 1] = -np.sin(T)

for kind in ("Y", "Psi"):
    basis = synthesize(member(kind, 1, 0, 1), ang).values[0]
    norm = 1.0 if kind == "Y" else 2.0
    coef = surface_integral(ang, (zhat * np.conj(basis)).sum(axis=-1)) / norm
    print("zhat coefficient in %-3s = %.15f  (sqrt(4 pi / 3) = %.15f)"
          % (kind, coef.real, np.sqrt(4.0 * np.pi / 3.0)))
