// psa-verify-fixture: expect(thread-confinement)
// Ad-hoc thread spawns in simulation code: the scheduler decides which
// worker touches which particles first, so RNG draws (and therefore the
// animation) differ between runs and worker counts. Parallel compute must
// go through psa_core::pool's submission-ordered results instead.

pub fn parallel_sum(parts: &mut [Vec<f64>]) -> f64 {
    let mut handles = Vec::new();
    for part in parts.iter_mut() {
        handles.push(std::thread::spawn(move || part.iter().sum::<f64>()));
    }
    handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
}

pub fn scoped_update(parts: &mut [Vec<f64>]) {
    std::thread::scope(|s| {
        for part in parts.iter_mut() {
            s.spawn(|| part.iter_mut().for_each(|v| *v += 1.0));
        }
    });
}
