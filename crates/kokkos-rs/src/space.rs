//! Execution spaces: where a kernel runs.
//!
//! `Serial` and the **HPX execution space** run on CPU worker threads (the
//! latter splittable into many HPX tasks).  The paper's CUDA space — the
//! GPUs of Summit / Piz Daint / Perlmutter — has no execution space here:
//! the GPU curves are scaling-model inputs and come from the `cluster`
//! crate's machine descriptions (DESIGN.md substitution rule).

use hpx_rt::Runtime;

/// The HPX execution space: kernels become `tasks_per_kernel` HPX tasks on
/// a runtime's worker pool (paper Section IV-B / VII-C).
#[derive(Clone)]
pub struct HpxSpace {
    /// Pool the kernel tasks are spawned onto.
    pub runtime: Runtime,
}

/// An execution space selection, Kokkos-style.
#[derive(Clone)]
pub enum ExecSpace {
    /// Run on the calling thread (Kokkos `Serial`).
    Serial,
    /// Run as HPX tasks (Kokkos HPX execution space).
    Hpx(HpxSpace),
}

impl ExecSpace {
    /// Convenience constructor for the HPX space.
    pub fn hpx(runtime: Runtime) -> Self {
        ExecSpace::Hpx(HpxSpace { runtime })
    }

    /// Space name, matching Kokkos nomenclature.
    pub fn name(&self) -> &'static str {
        match self {
            ExecSpace::Serial => "Serial",
            ExecSpace::Hpx(_) => "HPX",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(ExecSpace::Serial.name(), "Serial");
        let rt = Runtime::new(3);
        let space = ExecSpace::hpx(rt.clone());
        assert_eq!(space.name(), "HPX");
        rt.shutdown();
    }
}
