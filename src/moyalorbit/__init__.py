"""Deformed (Weyl-Moyal) products over a Lorentz orbit of skew forms.

Modules:
    geometry    -- metric, Lorentz transforms, the orbit of the standard skew form
    weyl        -- exact twisted group algebra of Weyl unitaries
    grids       -- periodic grids, centered FFT conventions, band-limited shifts
    gridio      -- the .moya grid file format and its JSON sidecar
    star        -- FFT star product, Weyl action, commutators, semiclassical sweep
    operators   -- Heisenberg blocks of L_f and their apply; the dense L_f as reference
    oracle      -- closed-form star product of separable Gaussians, any d and sigma
    covariance  -- fibered functions over group samples and the group actions
    suites      -- named verification suites and their run configuration
    cli         -- command-line driver
"""
