//! A forwarding [`SecurityEngine`] that times the engine calls the
//! per-layer metrics split out of set-up and the event loop: `install`,
//! `on_fill` and `on_writeback`. Every other method, defaulted ones
//! included, is forwarded untouched, so a wrapped engine simulates
//! exactly what the bare engine does.

use gpu_sim::{
    BackingMemory, EngineFactory, FillPlan, MetaFault, RecoveryError, RecoveryReport, SectorAddr,
    SecurityEngine, WritePlan,
};
use plutus_telemetry::{Telemetry, TraceId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Host time one simulation spent in its engines, over all partitions.
#[derive(Debug, Default, Clone)]
pub struct EngineTimes {
    /// Nanoseconds inside `install`, summed.
    pub install_ns: u64,
    /// `install` calls.
    pub installs: u64,
    /// Nanoseconds of each `on_fill` call.
    pub fill_ns: Vec<u32>,
    /// Nanoseconds of each `on_writeback` call.
    pub writeback_ns: Vec<u32>,
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn call_nanos(start: Instant) -> u32 {
    u32::try_from(nanos_since(start)).unwrap_or(u32::MAX)
}

/// Wraps one partition's engine; all partitions of a simulation share
/// one [`EngineTimes`].
pub struct TimedEngine {
    inner: Box<dyn SecurityEngine>,
    times: Rc<RefCell<EngineTimes>>,
}

impl TimedEngine {
    /// Wraps `inner`, accumulating its call times into `times`.
    pub fn new(inner: Box<dyn SecurityEngine>, times: Rc<RefCell<EngineTimes>>) -> Self {
        Self { inner, times }
    }
}

impl SecurityEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        let start = Instant::now();
        self.inner.install(addr, plaintext, mem);
        let ns = nanos_since(start);
        let mut t = self.times.borrow_mut();
        t.install_ns += ns;
        t.installs += 1;
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        let start = Instant::now();
        let plan = self.inner.on_fill(addr, mem);
        self.times.borrow_mut().fill_ns.push(call_nanos(start));
        plan
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        let start = Instant::now();
        let plan = self.inner.on_writeback(addr, plaintext, mem);
        self.times.borrow_mut().writeback_ns.push(call_nanos(start));
        plan
    }

    fn extra_stats(&self) -> Vec<(String, u64)> {
        self.inner.extra_stats()
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.inner.attach_telemetry(tel);
    }

    fn inject_fault(&mut self, addr: SectorAddr, fault: MetaFault) -> bool {
        self.inner.inject_fault(addr, fault)
    }

    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        self.inner.checkpoint()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn crash_revert(&mut self, checkpoint: &dyn SecurityEngine) -> bool {
        self.inner.crash_revert(checkpoint)
    }

    fn recover(
        &mut self,
        mem: &BackingMemory,
        sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        self.inner.recover(mem, sectors)
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        self.inner.peek_plaintext(addr, mem)
    }

    fn note_fill_failure(&mut self, addr: SectorAddr, recovered: bool) {
        self.inner.note_fill_failure(addr, recovered);
    }

    fn begin_access_trace(&mut self, id: TraceId) {
        self.inner.begin_access_trace(id);
    }

    fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.inner.start_key_rotation(tenant)
    }

    fn rotation_active(&self) -> bool {
        self.inner.rotation_active()
    }
}

/// Builds [`TimedEngine`]s around another factory's engines.
pub struct TimedFactory<'a> {
    inner: &'a dyn EngineFactory,
    times: Rc<RefCell<EngineTimes>>,
}

impl<'a> TimedFactory<'a> {
    /// Wraps `inner`; every engine it builds records into `times`.
    pub fn new(inner: &'a dyn EngineFactory, times: Rc<RefCell<EngineTimes>>) -> Self {
        Self { inner, times }
    }
}

impl EngineFactory for TimedFactory<'_> {
    fn build(&self, partition: usize) -> Box<dyn SecurityEngine> {
        Box::new(TimedEngine::new(
            self.inner.build(partition),
            self.times.clone(),
        ))
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;

    #[test]
    fn forwards_identity_and_recovery_hooks() {
        for scheme in Scheme::ALL {
            let factory = scheme.factory();
            let bare = factory.build(0);
            let times = Rc::new(RefCell::new(EngineTimes::default()));
            let timed = TimedFactory::new(factory.as_ref(), times).build(0);
            assert_eq!(timed.name(), bare.name());
            assert_eq!(timed.extra_stats(), bare.extra_stats());
            assert_eq!(timed.rotation_active(), bare.rotation_active());
            assert_eq!(timed.checkpoint().is_some(), bare.checkpoint().is_some());
            assert_eq!(timed.as_any().is_some(), bare.as_any().is_some());
            // A checkpoint of the wrapped engine is the inner engine's
            // own, so reverting to it reaches the inner implementation.
            if let Some(cp) = timed.checkpoint() {
                let mut timed = timed;
                assert!(timed.crash_revert(cp.as_ref()), "{}", scheme.label());
            }
        }
    }

    #[test]
    fn times_every_call() {
        let factory = Scheme::Pssm.factory();
        let times = Rc::new(RefCell::new(EngineTimes::default()));
        let mut engine = TimedFactory::new(factory.as_ref(), times.clone()).build(0);
        let mut mem = BackingMemory::new();
        let addr = SectorAddr::new(0);
        engine.install(addr, &[7; 32], &mut mem);
        let plan = engine.on_fill(addr, &mut mem);
        assert_eq!(plan.plaintext, [7; 32]);
        assert!(plan.violation.is_none());
        engine.on_writeback(addr, &[9; 32], &mut mem);
        let t = times.borrow();
        assert_eq!(t.installs, 1);
        assert_eq!(t.fill_ns.len(), 1);
        assert_eq!(t.writeback_ns.len(), 1);
    }
}
