//! PPL source text for every benchmark model and guide.
//!
//! The sources follow the paper's benchmark suite (§6, Table 1): example
//! models from Anglican/Turing/Pyro, recursive PCFG-style models, and the
//! programs shown in the paper's figures.  Each model is paired with a
//! guide whose guide type matches the model's latent protocol.

/// Bayesian linear regression (`lr`).
pub const LR_MODEL: &str = r#"
proc Lr() consume latent provide obs {
  let slope <- sample recv latent (Normal(0.0, 10.0));
  let intercept <- sample recv latent (Normal(0.0, 10.0));
  let _ <- sample send obs (Normal(slope * 1.0 + intercept, 1.0));
  let _ <- sample send obs (Normal(slope * 2.0 + intercept, 1.0));
  let _ <- sample send obs (Normal(slope * 3.0 + intercept, 1.0));
  let _ <- sample send obs (Normal(slope * 4.0 + intercept, 1.0));
  let _ <- sample send obs (Normal(slope * 5.0 + intercept, 1.0));
  return ()
}
"#;

/// Guide for `lr`.
pub const LR_GUIDE: &str = r#"
proc LrGuide() provide latent {
  let slope <- sample send latent (Normal(1.0, 3.0));
  let intercept <- sample send latent (Normal(0.0, 3.0));
  return ()
}
"#;

/// Gaussian mixture model (`gmm`): two components, four data points.
pub const GMM_MODEL: &str = r#"
proc Gmm() consume latent provide obs {
  let mu1 <- sample recv latent (Normal(-2.0, 3.0));
  let mu2 <- sample recv latent (Normal(2.0, 3.0));
  let z1 <- sample recv latent (Ber(0.5));
  let _ <- sample send obs (Normal(if z1 then mu1 else mu2, 1.0));
  let z2 <- sample recv latent (Ber(0.5));
  let _ <- sample send obs (Normal(if z2 then mu1 else mu2, 1.0));
  let z3 <- sample recv latent (Ber(0.5));
  let _ <- sample send obs (Normal(if z3 then mu1 else mu2, 1.0));
  let z4 <- sample recv latent (Ber(0.5));
  let _ <- sample send obs (Normal(if z4 then mu1 else mu2, 1.0));
  return ()
}
"#;

/// Guide for `gmm`.
pub const GMM_GUIDE: &str = r#"
proc GmmGuide() provide latent {
  let mu1 <- sample send latent (Normal(-2.0, 2.0));
  let mu2 <- sample send latent (Normal(2.0, 2.0));
  let z1 <- sample send latent (Ber(0.5));
  let z2 <- sample send latent (Ber(0.5));
  let z3 <- sample send latent (Ber(0.5));
  let z4 <- sample send latent (Ber(0.5));
  return ()
}
"#;

/// Kalman smoother (`kalman`): a three-step Gaussian random walk.
pub const KALMAN_MODEL: &str = r#"
proc Kalman() consume latent provide obs {
  let x1 <- sample recv latent (Normal(0.0, 1.0));
  let _ <- sample send obs (Normal(x1, 0.5));
  let x2 <- sample recv latent (Normal(x1, 1.0));
  let _ <- sample send obs (Normal(x2, 0.5));
  let x3 <- sample recv latent (Normal(x2, 1.0));
  let _ <- sample send obs (Normal(x3, 0.5));
  return ()
}
"#;

/// Guide for `kalman`.
pub const KALMAN_GUIDE: &str = r#"
proc KalmanGuide() provide latent {
  let x1 <- sample send latent (Normal(0.5, 1.0));
  let x2 <- sample send latent (Normal(1.0, 1.0));
  let x3 <- sample send latent (Normal(1.5, 1.0));
  return ()
}
"#;

/// Sprinkler Bayesian network (`sprinkler`).
pub const SPRINKLER_MODEL: &str = r#"
proc Sprinkler() consume latent provide obs {
  let rain <- sample recv latent (Ber(0.2));
  let sprinkler <- sample recv latent (Ber(if rain then 0.01 else 0.4));
  let _ <- sample send obs (Ber(if rain && sprinkler then 0.99 else if rain || sprinkler then 0.8 else 0.05));
  return ()
}
"#;

/// Guide for `sprinkler`.
pub const SPRINKLER_GUIDE: &str = r#"
proc SprinklerGuide() provide latent {
  let rain <- sample send latent (Ber(0.4));
  let sprinkler <- sample send latent (Ber(0.4));
  return ()
}
"#;

/// Hidden Markov model (`hmm`): three steps, Boolean states.
pub const HMM_MODEL: &str = r#"
proc Hmm() consume latent provide obs {
  let s1 <- sample recv latent (Ber(0.5));
  let _ <- sample send obs (Normal(if s1 then 1.0 else -1.0, 1.0));
  let s2 <- sample recv latent (Ber(if s1 then 0.7 else 0.3));
  let _ <- sample send obs (Normal(if s2 then 1.0 else -1.0, 1.0));
  let s3 <- sample recv latent (Ber(if s2 then 0.7 else 0.3));
  let _ <- sample send obs (Normal(if s3 then 1.0 else -1.0, 1.0));
  return ()
}
"#;

/// Guide for `hmm`.
pub const HMM_GUIDE: &str = r#"
proc HmmGuide() provide latent {
  let s1 <- sample send latent (Ber(0.6));
  let s2 <- sample send latent (Ber(0.6));
  let s3 <- sample send latent (Ber(0.6));
  return ()
}
"#;

/// Random control flow (`branching`, after the Anglican benchmark): the
/// number of latent variables depends on a comparison of a discrete draw.
pub const BRANCHING_MODEL: &str = r#"
proc Branching() consume latent provide obs {
  let count <- sample recv latent (Geo(0.5));
  if send latent (count < 4) {
    let _ <- sample send obs (Normal(real(count), 1.0));
    return ()
  } else {
    let extra <- sample recv latent (Pois(4.0));
    let _ <- sample send obs (Normal(real(count + extra), 1.0));
    return ()
  }
}
"#;

/// Guide for `branching`.
pub const BRANCHING_GUIDE: &str = r#"
proc BranchingGuide() provide latent {
  let count <- sample send latent (Geo(0.4));
  if recv latent {
    return ()
  } else {
    let extra <- sample send latent (Pois(5.0));
    return ()
  }
}
"#;

/// The Marsaglia polar method as a recursive probabilistic program
/// (`marsaglia`), following the classic Anglican benchmark.
pub const MARSAGLIA_MODEL: &str = r#"
proc Marsaglia() : real consume latent provide obs {
  let x <- call MarsagliaStep(1.0, 1.0);
  let _ <- sample send obs (Normal(x, 0.5));
  return x
}
proc MarsagliaStep(mean : real, scale : preal) : real consume latent {
  let u1 <- sample recv latent (Unif);
  let u2 <- sample recv latent (Unif);
  let s <- return ((2.0 * u1 - 1.0) * (2.0 * u1 - 1.0) + (2.0 * u2 - 1.0) * (2.0 * u2 - 1.0));
  if send latent (s < 1.0) {
    return mean + scale * (2.0 * u1 - 1.0) * sqrt(-2.0 * ln(s) / s)
  } else {
    let r <- call MarsagliaStep(mean, scale);
    return r
  }
}
"#;

/// Guide for `marsaglia`.
pub const MARSAGLIA_GUIDE: &str = r#"
proc MarsagliaGuide() provide latent {
  let _ <- call MarsagliaStepGuide();
  return ()
}
proc MarsagliaStepGuide() provide latent {
  let u1 <- sample send latent (Unif);
  let u2 <- sample send latent (Unif);
  if recv latent {
    return ()
  } else {
    let _ <- call MarsagliaStepGuide();
    return ()
  }
}
"#;

/// Poisson-trace algorithm (`ptrace`, Fig. 10 / Knuth's algorithm).
pub const PTRACE_MODEL: &str = r#"
proc Ptrace() : real consume latent provide obs {
  let k <- call PtraceHelper(exp(-(4.0)), 0.0, 1.0);
  let _ <- sample send obs (Normal(k, 0.1));
  return k
}
proc PtraceHelper(l : preal, k : real, p : preal) : real consume latent {
  let u <- sample recv latent (Unif);
  if send latent (p * u <= l) {
    return k
  } else {
    let r <- call PtraceHelper(l, k + 1.0, p * u);
    return r
  }
}
"#;

/// Guide for `ptrace`.
pub const PTRACE_GUIDE: &str = r#"
proc PtraceGuide() provide latent {
  let _ <- call PtraceHelperGuide();
  return ()
}
proc PtraceHelperGuide() provide latent {
  let u <- sample send latent (Unif);
  if recv latent {
    return ()
  } else {
    let _ <- call PtraceHelperGuide();
    return ()
  }
}
"#;

/// Aircraft detection (`aircraft`): two potential aircraft with presence
/// flags and positions; every latent site is always sampled, so the model
/// stays within the trace-type fragment.
pub const AIRCRAFT_MODEL: &str = r#"
proc Aircraft() consume latent provide obs {
  let present1 <- sample recv latent (Ber(0.5));
  let pos1 <- sample recv latent (Normal(0.0, 5.0));
  let present2 <- sample recv latent (Ber(0.3));
  let pos2 <- sample recv latent (Normal(0.0, 5.0));
  let _ <- sample send obs (Normal(if present1 then pos1 else 0.0, 1.0));
  let _ <- sample send obs (Normal(if present2 then pos2 else 0.0, 1.0));
  return ()
}
"#;

/// Guide for `aircraft`.
pub const AIRCRAFT_GUIDE: &str = r#"
proc AircraftGuide() provide latent {
  let present1 <- sample send latent (Ber(0.5));
  let pos1 <- sample send latent (Normal(2.0, 3.0));
  let present2 <- sample send latent (Ber(0.5));
  let pos2 <- sample send latent (Normal(-2.0, 3.0));
  return ()
}
"#;

/// Unreliable weighing (`weight`): the Pyro introductory example.
pub const WEIGHT_MODEL: &str = r#"
proc WeightModel() : real consume latent provide obs {
  let w <- sample recv latent (Normal(2.0, 1.0));
  let _ <- sample send obs (Normal(w, 0.75));
  let _ <- sample send obs (Normal(w, 0.75));
  return w
}
"#;

/// Parameterised guide for `weight` (variational inference).
pub const WEIGHT_GUIDE: &str = r#"
proc WeightGuide(mu : real, sigma : preal) provide latent {
  let w <- sample send latent (Normal(mu, sigma));
  return ()
}
"#;

/// A small variational autoencoder (`vae`): a two-dimensional latent code
/// with a fixed linear decoder over four observed dimensions (the paper's
/// benchmark works on tensors; this version unrolls them to scalars).
pub const VAE_MODEL: &str = r#"
proc Vae() consume latent provide obs {
  let z1 <- sample recv latent (Normal(0.0, 1.0));
  let z2 <- sample recv latent (Normal(0.0, 1.0));
  let _ <- sample send obs (Normal(0.9 * z1 + 0.1 * z2, 0.5));
  let _ <- sample send obs (Normal(0.5 * z1 - 0.5 * z2, 0.5));
  let _ <- sample send obs (Normal(0.1 * z1 + 0.9 * z2, 0.5));
  let _ <- sample send obs (Normal(0.4 * z1 + 0.3 * z2, 0.5));
  return ()
}
"#;

/// Parameterised encoder/guide for `vae` (variational inference).
pub const VAE_GUIDE: &str = r#"
proc VaeGuide(m1 : real, s1 : preal, m2 : real, s2 : preal) provide latent {
  let z1 <- sample send latent (Normal(m1, s1));
  let z2 <- sample send latent (Normal(m2, s2));
  return ()
}
"#;

/// The model of Fig. 1 / Fig. 5 (`ex-1`).
pub const EX1_MODEL: &str = r#"
proc Model() : real consume latent provide obs {
  let v <- sample recv latent (Gamma(2.0, 1.0));
  if send latent (v < 2.0) {
    let _ <- sample send obs (Normal(-1.0, 1.0));
    return v
  } else {
    let m <- sample recv latent (Beta(3.0, 1.0));
    let _ <- sample send obs (Normal(m, 1.0));
    return v
  }
}
"#;

/// The sound guide of Fig. 3 / Fig. 5 (`ex-1`).
pub const EX1_GUIDE: &str = r#"
proc Guide1() provide latent {
  let v <- sample send latent (Gamma(1.0, 1.0));
  if recv latent {
    return ()
  } else {
    let _ <- sample send latent (Unif);
    return ()
  }
}
"#;

/// The *unsound* guide of Fig. 3 (`Guide1'`), kept for negative tests.
pub const EX1_BAD_GUIDE: &str = r#"
proc Guide1Bad() provide latent {
  let v <- sample send latent (Pois(4.0));
  if recv latent {
    return ()
  } else {
    let _ <- sample send latent (Unif);
    return ()
  }
}
"#;

/// The recursive PCFG model of Fig. 6 (`ex-2`); expression trees are
/// represented by their evaluated sum, which keeps the program within the
/// calculus' scalar value types.  The leaf probability is bounded below by
/// one half (`u < 0.5 + 0.5·k`) so that the branching process is
/// almost-surely finite with finite expected size and the benchmark can be
/// executed generatively (Fig. 6's `u < k` is supercritical for small `k`).
pub const EX2_MODEL: &str = r#"
proc Pcfg() : real consume latent {
  let k <- sample recv latent (Beta(3.0, 1.0));
  let t <- call PcfgGen(k);
  return t
}
proc PcfgGen(k : ureal) : real consume latent {
  let u <- sample recv latent (Unif);
  if send latent (u < 0.5 + 0.5 * k) {
    let v <- sample recv latent (Normal(0.0, 1.0));
    return v
  } else {
    let lhs <- call PcfgGen(k);
    let rhs <- call PcfgGen(k);
    return lhs + rhs
  }
}
"#;

/// Guide for `ex-2`.
pub const EX2_GUIDE: &str = r#"
proc PcfgGuide() provide latent {
  let k <- sample send latent (Beta(2.0, 2.0));
  let _ <- call PcfgGenGuide();
  return ()
}
proc PcfgGenGuide() provide latent {
  let u <- sample send latent (Unif);
  if recv latent {
    let v <- sample send latent (Normal(0.0, 2.0));
    return ()
  } else {
    let _ <- call PcfgGenGuide();
    let _ <- call PcfgGenGuide();
    return ()
  }
}
"#;

/// Gaussian-process kernel DSL (`gp-dsl`): a PCFG over kernel structures
/// whose evaluated amplitude is observed (the paper's benchmark uses the
/// DSL of Saad et al. 2019; this version's grammar has only leaf scales
/// and sums, and it observes the amplitude rather than GP data).
pub const GP_DSL_MODEL: &str = r#"
proc GpDsl() : real consume latent provide obs {
  let amp <- call GpKernel();
  let _ <- sample send obs (Normal(amp, 0.5));
  let _ <- sample send obs (Normal(amp, 0.5));
  return amp
}
proc GpKernel() : real consume latent {
  let u <- sample recv latent (Unif);
  if send latent (u < 0.6) {
    let scale <- sample recv latent (Gamma(2.0, 2.0));
    return scale
  } else {
    let lhs <- call GpKernel();
    let rhs <- call GpKernel();
    return lhs + rhs
  }
}
"#;

/// Guide for `gp-dsl`.
pub const GP_DSL_GUIDE: &str = r#"
proc GpDslGuide() provide latent {
  let _ <- call GpKernelGuide();
  return ()
}
proc GpKernelGuide() provide latent {
  let u <- sample send latent (Unif);
  if recv latent {
    let scale <- sample send latent (Gamma(2.0, 1.0));
    return ()
  } else {
    let _ <- call GpKernelGuide();
    let _ <- call GpKernelGuide();
    return ()
  }
}
"#;

/// The §2.2 outlier example used with MCMC (`outlier`).
pub const OUTLIER_MODEL: &str = r#"
proc OutlierModel() consume latent provide obs {
  let prob_outlier <- sample recv latent (Unif);
  let is_outlier <- sample recv latent (Ber(prob_outlier));
  let _ <- sample send obs (Normal(if is_outlier then 10.0 else 0.0, 1.0));
  return ()
}
"#;

/// The data-dependent MCMC proposal guide for `outlier` (its Boolean
/// argument is the previous sample's `is_outlier`).
pub const OUTLIER_GUIDE: &str = r#"
proc OutlierGuide(old_is_outlier : bool) provide latent {
  let prob_outlier <- sample send latent (Beta(2.0, 2.0));
  let is_outlier <- sample send latent (Ber(if old_is_outlier then 0.2 else 0.8));
  return ()
}
"#;

/// Conjugate normal–normal model (`normal-normal`, extra benchmark).
pub const NORMAL_NORMAL_MODEL: &str = r#"
proc NormalNormal() : real consume latent provide obs {
  let x <- sample recv latent (Normal(0.0, 1.0));
  let _ <- sample send obs (Normal(x, 1.0));
  return x
}
"#;

/// Guide for `normal-normal`.
pub const NORMAL_NORMAL_GUIDE: &str = r#"
proc NormalNormalGuide() provide latent {
  let x <- sample send latent (Normal(0.0, 1.5));
  return ()
}
"#;

/// A recursive geometric counter (`geometric`, extra benchmark).
pub const GEOMETRIC_MODEL: &str = r#"
proc GeoModel() : real consume latent provide obs {
  let n <- call GeoStep(0.5);
  let _ <- sample send obs (Normal(n, 1.0));
  return n
}
proc GeoStep(p : ureal) : real consume latent {
  let u <- sample recv latent (Unif);
  if send latent (u < p) {
    return 0.0
  } else {
    let rest <- call GeoStep(p);
    return rest + 1.0
  }
}
"#;

/// Guide for `geometric`.
pub const GEOMETRIC_GUIDE: &str = r#"
proc GeoGuide() provide latent {
  let _ <- call GeoStepGuide();
  return ()
}
proc GeoStepGuide() provide latent {
  let u <- sample send latent (Unif);
  if recv latent {
    return ()
  } else {
    let _ <- call GeoStepGuide();
    return ()
  }
}
"#;

/// Burglary/alarm Bayesian network (`burglary`, extra benchmark).
pub const BURGLARY_MODEL: &str = r#"
proc Burglary() consume latent provide obs {
  let burglary <- sample recv latent (Ber(0.01));
  let earthquake <- sample recv latent (Ber(0.02));
  let _ <- sample send obs (Ber(if burglary && earthquake then 0.95 else if burglary then 0.94 else if earthquake then 0.29 else 0.01));
  return ()
}
"#;

/// Guide for `burglary`.
pub const BURGLARY_GUIDE: &str = r#"
proc BurglaryGuide() provide latent {
  let burglary <- sample send latent (Ber(0.3));
  let earthquake <- sample send latent (Ber(0.3));
  return ()
}
"#;

/// Beta–Bernoulli coin model (`coin`, extra benchmark).
pub const COIN_MODEL: &str = r#"
proc Coin() : ureal consume latent provide obs {
  let p <- sample recv latent (Beta(2.0, 2.0));
  let _ <- sample send obs (Ber(p));
  let _ <- sample send obs (Ber(p));
  let _ <- sample send obs (Ber(p));
  let _ <- sample send obs (Ber(p));
  return p
}
"#;

/// Guide for `coin`.
pub const COIN_GUIDE: &str = r#"
proc CoinGuide() provide latent {
  let p <- sample send latent (Beta(3.0, 2.0));
  return ()
}
"#;

/// Seasonal mixture with a categorical latent (`seasons`, extra benchmark).
pub const SEASONS_MODEL: &str = r#"
proc Seasons() consume latent provide obs {
  let season <- sample recv latent (Cat(1.0, 1.0, 1.0, 1.0));
  let temp <- sample recv latent (Normal(if season == 0 then 0.0 else if season == 1 then 10.0 else if season == 2 then 20.0 else 10.0, 3.0));
  let _ <- sample send obs (Normal(temp, 2.0));
  return ()
}
"#;

/// Guide for `seasons`.
pub const SEASONS_GUIDE: &str = r#"
proc SeasonsGuide() provide latent {
  let season <- sample send latent (Cat(1.0, 1.0, 1.0, 1.0));
  let temp <- sample send latent (Normal(12.0, 8.0));
  return ()
}
"#;
