//! The daemon's model registry and strategy lookup.
//!
//! Canonicalizing a multi-hundred-layer zoo model is far from free, and a
//! service answering a request stream must pay it once per model per
//! process, not once per request. The registry builds each model's
//! [`Model`] handle (canonical graph, fingerprint, `PE_min`) lazily on
//! first use and shares it with every later request, as a sweep's jobs
//! share theirs. [`build_config`] turns a request's strategy name into the
//! sweeps' [`PaperStrategy`], so a request and a sweep row with the same
//! label run the same configuration.

use std::collections::BTreeMap;
use std::sync::Arc;

use cim_bench::runner::{Model, PaperStrategy};
use clsa_core::RunConfig;
use parking_lot::Mutex;

use crate::protocol::{ErrorCode, ServeError};

/// Lazily-built, memoized name → [`Model`] map.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Mutex<BTreeMap<String, Arc<Model>>>,
}

/// The strategy names the service accepts, in canonical order (plus the
/// alias `baseline` for `layer-by-layer`).
pub const STRATEGIES: [&str; 4] = PaperStrategy::NAMES;

impl ModelRegistry {
    /// An empty registry (models materialize on first request).
    pub fn new() -> Self {
        Self::default()
    }

    /// Every name the registry can resolve, in canonical order.
    pub fn known_names() -> Vec<String> {
        cim_models::model_names().into_iter().map(String::from).collect()
    }

    /// Resolves `name`, canonicalizing and probing `PE_min` on first use.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownModel`] for names outside the registry;
    /// [`ErrorCode::ScheduleFailed`] if canonicalization or the cost
    /// probe fails (deterministic per name, so the error replies are
    /// reproducible too).
    pub fn resolve(&self, name: &str) -> Result<Arc<Model>, ServeError> {
        if let Some(model) = self.models.lock().get(name) {
            return Ok(Arc::clone(model));
        }
        // Build outside the lock: canonicalization is slow and concurrent
        // requests for *different* models must not serialize on it. A
        // racing duplicate build of the same model is benign (identical
        // output; last insert wins).
        let raw = cim_models::graph_by_name(name).map_err(|_| {
            ServeError::new(
                ErrorCode::UnknownModel,
                format!("unknown model `{name}` (known: {})", Self::known_names().join(", ")),
            )
        })?;
        let model = Model::canonical(name, &raw).map_err(|e| {
            ServeError::new(
                ErrorCode::ScheduleFailed,
                format!("preparing model `{name}` failed: {e}"),
            )
        })?;
        self.models
            .lock()
            .insert(name.to_string(), Arc::clone(&model));
        Ok(model)
    }
}

/// Builds the [`RunConfig`] and sweep label of a request's `(strategy, x)`
/// on `model`: the [`PaperStrategy`] of that name (`baseline` is an alias
/// of `layer-by-layer`).
///
/// # Errors
///
/// [`ErrorCode::UnknownStrategy`] for names outside [`STRATEGIES`];
/// [`ErrorCode::BadRequest`] if `PE_min + x` overflows;
/// [`ErrorCode::ScheduleFailed`] if the architecture cannot be built.
pub fn build_config(
    model: &Model,
    strategy: &str,
    x: usize,
) -> Result<(RunConfig, String), ServeError> {
    let named = match strategy {
        "baseline" => Some(PaperStrategy::LayerByLayer),
        name => PaperStrategy::from_name(name),
    };
    let strategy = named.ok_or_else(|| {
        ServeError::new(
            ErrorCode::UnknownStrategy,
            format!(
                "unknown strategy `{strategy}` (known: {})",
                STRATEGIES.join(", ")
            ),
        )
    })?;
    let pes = strategy.pes(model.pe_min(), x).ok_or_else(|| {
        ServeError::new(
            ErrorCode::BadRequest,
            format!("`x` {x}: PE_min {} + x overflows", model.pe_min()),
        )
    })?;
    let config = strategy.config(pes).map_err(|e| {
        ServeError::new(
            ErrorCode::ScheduleFailed,
            format!("architecture with {pes} PEs rejected: {e}"),
        )
    })?;
    Ok((config, strategy.label(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_resolves_and_is_memoized() {
        let reg = ModelRegistry::new();
        let a = reg.resolve("fig5").unwrap();
        let b = reg.resolve("fig5").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second resolve reuses the entry");
        assert_eq!(a.pe_min(), 2);
        assert_eq!(a.name(), "fig5");
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let reg = ModelRegistry::new();
        let err = reg.resolve("GPT7").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownModel);
        assert!(err.detail.contains("fig5"), "detail lists known names");
    }

    #[test]
    fn strategies_map_to_sweep_labels() {
        let reg = ModelRegistry::new();
        let entry = reg.resolve("fig5").unwrap();
        let labels: Vec<String> = [
            ("layer-by-layer", 0),
            ("xinf", 0),
            ("wdup", 1),
            ("wdup+xinf", 2),
        ]
        .iter()
        .map(|&(s, x)| build_config(&entry, s, x).unwrap().1)
        .collect();
        assert_eq!(labels, ["layer-by-layer", "xinf", "wdup+1", "wdup+2+xinf"]);
        let err = build_config(&entry, "magic", 0).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownStrategy);
    }

    #[test]
    fn wdup_architecture_grows_with_x() {
        let reg = ModelRegistry::new();
        let entry = reg.resolve("fig5").unwrap();
        let (cfg, _) = build_config(&entry, "wdup", 3).unwrap();
        assert_eq!(cfg.arch.total_pes(), entry.pe_min() + 3);
    }
}
