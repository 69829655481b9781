//! Sample statistics: percentiles, medians, the quartile spread the
//! acceptance rule uses, and normalisation by the reference kernel.

/// The `p`-th percentile (`0.0..=1.0`) by the nearest-rank rule: the
/// smallest sample with at least `p` of the samples at or below it.
/// `None` for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two samples.
pub fn quartiles(samples: &mut [f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        samples[j - 1] + frac * (samples[j] - samples[j - 1])
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(samples: &mut [f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

/// What a time measured while the reference kernel read `reading_us`
/// is multiplied by (and a rate divided by) to give what it would have
/// been had the kernel taken its nominal time. `elasticity` is how many
/// per cent the measured work slows when the kernel slows by one.
pub fn host_factor(reading_us: f64, nominal_us: f64, elasticity: f64) -> f64 {
    (nominal_us / reading_us).powf(elasticity)
}

/// `num / den`, refused when the denominator (nanoseconds) is too close
/// to the timer's resolution to carry a ratio.
pub fn guarded_ratio(num: f64, den_ns: f64, timer_floor_ns: f64) -> Result<f64, String> {
    if den_ns < 100.0 * timer_floor_ns {
        return Err(format!(
            "denominator {den_ns:.0} ns is under 100 x the timer floor ({timer_floor_ns:.0} ns)"
        ));
    }
    Ok(num / den_ns)
}
